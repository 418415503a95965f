//! Staging LINEITEM into the simulated object store.
//!
//! Two paths, matching the two [`lambada_core::TableFile`] flavours:
//!
//! * [`stage_real`] encodes actual generated data into columnar files —
//!   the full pipeline runs end to end (tests, examples, validation);
//! * [`stage_descriptors`] builds paper-scale tables (SF 1000 = 320 files
//!   of ~500 MB Parquet, §5.1) as synthetic objects plus analytically
//!   calibrated footers: per-column compression ratios are *measured* on
//!   a real sample file, ship-date min/max statistics per row group come
//!   from the generator's sorted quantiles, so pruning, transfer sizes,
//!   request counts, and CPU charges all behave like the real thing.

use std::rc::Rc;

use lambada_core::{TableFile, TableSpec};
use lambada_format::{
    chunk_rows, write_file, ChunkStats, ColumnChunkMeta, Compression, Encoding, FileMeta,
    RowGroupMeta, WriterOptions,
};
use lambada_sim::services::object_store::Body;
use lambada_sim::Cloud;

use crate::lineitem::{cols, rows_for_scale, schema, LineitemGenerator};

/// Options for real staging.
#[derive(Clone, Copy, Debug)]
pub struct StageOptions {
    pub scale: f64,
    pub num_files: usize,
    pub row_groups_per_file: usize,
    pub seed: u64,
}

impl Default for StageOptions {
    fn default() -> Self {
        StageOptions { scale: 0.01, num_files: 8, row_groups_per_file: 4, seed: 0x7C4 }
    }
}

/// Generate the per-file column sets exactly as [`stage_real`] lays them
/// out — tests use this to build the bit-identical reference table.
pub fn generate_file_columns(opts: StageOptions) -> Vec<Vec<lambada_engine::Column>> {
    let total_rows = rows_for_scale(opts.scale);
    let generator = LineitemGenerator::new(opts.seed);
    let shipdates = generator.sorted_shipdates(total_rows);
    let rows_per_file = (total_rows as usize).div_ceil(opts.num_files.max(1));
    let mut out = Vec::with_capacity(opts.num_files);
    let mut offset = 0usize;
    while offset < shipdates.len() {
        let end = (offset + rows_per_file).min(shipdates.len());
        out.push(generator.columns_for_shipdates(&shipdates[offset..end], offset as u64));
        offset = end;
    }
    out
}

/// Generate, encode, and stage real LINEITEM files. Returns the table
/// spec to register with the driver.
pub fn stage_real(cloud: &Cloud, bucket: &str, table: &str, opts: StageOptions) -> TableSpec {
    let total_rows = rows_for_scale(opts.scale);
    stage_table_real(
        cloud,
        bucket,
        table,
        schema(),
        generate_file_columns(opts),
        total_rows,
        opts.row_groups_per_file,
    )
}

/// Encode and stage pre-generated column sets as real files of `table`.
/// Shared by every relation's staging path.
pub fn stage_table_real(
    cloud: &Cloud,
    bucket: &str,
    table: &str,
    table_schema: lambada_engine::Schema,
    file_columns: Vec<Vec<lambada_engine::Column>>,
    total_rows: u64,
    row_groups_per_file: usize,
) -> TableSpec {
    cloud.s3.create_bucket(bucket);
    let file_schema = table_schema.to_file_schema().expect("numeric schema");
    let mut files = Vec::with_capacity(file_columns.len());
    for (file_idx, columns) in file_columns.into_iter().enumerate() {
        let rows = columns.first().map_or(0, lambada_engine::Column::len);
        let rg_rows = rows.div_ceil(row_groups_per_file.max(1));
        let groups: Vec<Vec<lambada_format::ColumnData>> = chunk_rows(
            &columns.into_iter().map(|c| c.into_data().expect("numeric")).collect::<Vec<_>>(),
            rg_rows.max(1),
        );
        let bytes = write_file(file_schema.clone(), &groups, WriterOptions::default())
            .expect("encode table file");
        let key = format!("{table}/p{file_idx:05}/part.lpq");
        let size = bytes.len() as u64;
        cloud.s3.stage(bucket, &key, Body::from_vec(bytes));
        files.push(TableFile::real(bucket, key, size));
    }
    TableSpec::new(table, table_schema, files, total_rows)
}

/// Options for staging a real ORDERS table.
#[derive(Clone, Copy, Debug)]
pub struct OrdersStageOptions {
    /// Total order rows; use
    /// [`crate::orders::rows_matching_lineitem`] for a fully-matching
    /// join against a LINEITEM staged at the same scale.
    pub rows: u64,
    pub num_files: usize,
    pub row_groups_per_file: usize,
    pub seed: u64,
}

impl Default for OrdersStageOptions {
    fn default() -> Self {
        OrdersStageOptions { rows: 60_000, num_files: 4, row_groups_per_file: 4, seed: 0x0_12D }
    }
}

/// Generate the per-file ORDERS column sets exactly as
/// [`stage_real_orders`] lays them out.
pub fn generate_orders_file_columns(opts: OrdersStageOptions) -> Vec<Vec<lambada_engine::Column>> {
    let generator = crate::orders::OrdersGenerator::new(opts.seed);
    let rows_per_file = (opts.rows as usize).div_ceil(opts.num_files.max(1));
    let mut out = Vec::with_capacity(opts.num_files);
    let mut offset = 0usize;
    while offset < opts.rows as usize {
        let n = rows_per_file.min(opts.rows as usize - offset);
        out.push(generator.columns_for_range(offset as u64, n));
        offset += n;
    }
    out
}

/// Generate, encode, and stage real ORDERS files, sorted by `o_orderkey`
/// across files.
pub fn stage_real_orders(
    cloud: &Cloud,
    bucket: &str,
    table: &str,
    opts: OrdersStageOptions,
) -> TableSpec {
    stage_table_real(
        cloud,
        bucket,
        table,
        crate::orders::schema(),
        generate_orders_file_columns(opts),
        opts.rows,
        opts.row_groups_per_file,
    )
}

/// Options for staging a real CUSTOMER table.
#[derive(Clone, Copy, Debug)]
pub struct CustomerStageOptions {
    /// Total customer rows; use
    /// [`crate::customer::rows_matching_orders`] for a fully-matching
    /// join against the ORDERS generator's `o_custkey` domain.
    pub rows: u64,
    pub num_files: usize,
    pub row_groups_per_file: usize,
    pub seed: u64,
}

impl Default for CustomerStageOptions {
    fn default() -> Self {
        CustomerStageOptions { rows: 49_999, num_files: 2, row_groups_per_file: 4, seed: 0x0_C57 }
    }
}

/// Generate the per-file CUSTOMER column sets exactly as
/// [`stage_real_customer`] lays them out.
pub fn generate_customer_file_columns(
    opts: CustomerStageOptions,
) -> Vec<Vec<lambada_engine::Column>> {
    let generator = crate::customer::CustomerGenerator::new(opts.seed);
    let rows_per_file = (opts.rows as usize).div_ceil(opts.num_files.max(1));
    let mut out = Vec::with_capacity(opts.num_files);
    let mut offset = 0usize;
    while offset < opts.rows as usize {
        let n = rows_per_file.min(opts.rows as usize - offset);
        out.push(generator.columns_for_range(offset as u64, n));
        offset += n;
    }
    out
}

/// Generate, encode, and stage real CUSTOMER files, sorted by
/// `c_custkey` across files.
pub fn stage_real_customer(
    cloud: &Cloud,
    bucket: &str,
    table: &str,
    opts: CustomerStageOptions,
) -> TableSpec {
    stage_table_real(
        cloud,
        bucket,
        table,
        crate::customer::schema(),
        generate_customer_file_columns(opts),
        opts.rows,
        opts.row_groups_per_file,
    )
}

/// Per-column storage profile measured from a real sample encode.
#[derive(Clone, Debug)]
pub struct StorageProfile {
    /// compressed bytes per row, per column.
    pub compressed_per_row: Vec<f64>,
    /// uncompressed (encoded) bytes per row, per column.
    pub uncompressed_per_row: Vec<f64>,
    pub encodings: Vec<Encoding>,
}

/// Measure the per-column compression behaviour on a sample of rows.
pub fn measure_profile(seed: u64, sample_rows: u64) -> StorageProfile {
    let generator = LineitemGenerator::new(seed);
    let columns = generator.generate(sample_rows);
    let data: Vec<lambada_format::ColumnData> =
        columns.iter().map(|c| c.clone().into_data().expect("numeric")).collect();
    let file_schema = schema().to_file_schema().expect("numeric schema");
    let bytes = write_file(file_schema, &[data], WriterOptions::default()).expect("encode sample");
    let meta = lambada_format::read_footer(&bytes).expect("parse sample footer");
    let rg = &meta.row_groups[0];
    let n = sample_rows as f64;
    StorageProfile {
        compressed_per_row: rg.columns.iter().map(|c| c.compressed_len as f64 / n).collect(),
        uncompressed_per_row: rg.columns.iter().map(|c| c.uncompressed_len as f64 / n).collect(),
        encodings: rg.columns.iter().map(|c| c.encoding).collect(),
    }
}

/// Options for descriptor staging.
#[derive(Clone, Debug)]
pub struct DescriptorOptions {
    /// TPC-H scale factor (1000 for the paper's main dataset).
    pub scale: f64,
    /// Number of files ("the table is stored in 320 files", §5.2; SF 10k
    /// replicates them to 3200).
    pub num_files: usize,
    pub row_groups_per_file: usize,
    pub seed: u64,
    /// Sample size for calibrating the storage profile.
    pub sample_rows: u64,
}

impl Default for DescriptorOptions {
    fn default() -> Self {
        DescriptorOptions {
            scale: 1000.0,
            num_files: 320,
            row_groups_per_file: 6,
            seed: 0x7C4,
            sample_rows: 50_000,
        }
    }
}

/// Build and stage a paper-scale descriptor table.
pub fn stage_descriptors(
    cloud: &Cloud,
    bucket: &str,
    table: &str,
    opts: &DescriptorOptions,
) -> TableSpec {
    cloud.s3.create_bucket(bucket);
    let profile = measure_profile(opts.seed, opts.sample_rows);
    let total_rows = rows_for_scale(opts.scale);
    let rows_per_file = total_rows / opts.num_files as u64;

    // Ship-date quantiles from a sample: file i covers the quantile band
    // [i/n, (i+1)/n] of the (globally sorted) ship dates; row groups
    // subdivide it further.
    let generator = LineitemGenerator::new(opts.seed);
    let sample = generator.sorted_shipdates(opts.sample_rows.max(1024));
    let quantile = |q: f64| -> i64 {
        let idx = ((sample.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sample[idx]
    };

    let file_schema = schema().to_file_schema().expect("numeric schema");
    let full_stats = full_range_stats(&profile);
    let mut files = Vec::with_capacity(opts.num_files);
    for i in 0..opts.num_files {
        let rg_per_file = opts.row_groups_per_file.max(1);
        let rg_rows = rows_per_file / rg_per_file as u64;
        let mut row_groups = Vec::with_capacity(rg_per_file);
        let mut offset = 0u64;
        for g in 0..rg_per_file {
            let frac_lo = (i as f64 + g as f64 / rg_per_file as f64) / opts.num_files as f64;
            let frac_hi =
                (i as f64 + (g as f64 + 1.0) / rg_per_file as f64) / opts.num_files as f64;
            let rows = if g + 1 == rg_per_file {
                rows_per_file - rg_rows * (rg_per_file as u64 - 1)
            } else {
                rg_rows
            };
            let mut columns = Vec::with_capacity(file_schema.len());
            for (c, &full) in full_stats.iter().enumerate() {
                let compressed = (profile.compressed_per_row[c] * rows as f64).ceil() as u64;
                let uncompressed = (profile.uncompressed_per_row[c] * rows as f64).ceil() as u64;
                let stats = if c == cols::SHIPDATE {
                    Some(ChunkStats::I64 { min: quantile(frac_lo), max: quantile(frac_hi) })
                } else {
                    full
                };
                columns.push(ColumnChunkMeta {
                    offset,
                    compressed_len: compressed,
                    uncompressed_len: uncompressed,
                    num_values: rows,
                    encoding: profile.encodings[c],
                    compression: Compression::Lz,
                    stats,
                });
                offset += compressed;
            }
            row_groups.push(RowGroupMeta { num_rows: rows, columns });
        }
        let meta = FileMeta { schema: file_schema.clone(), num_rows: rows_per_file, row_groups };
        let footer_len = meta.encode_footer().len() as u64;
        let size = meta.total_compressed_len() + footer_len;
        let key = format!("{table}/p{i:05}/part.lpq");
        cloud.s3.stage(bucket, &key, Body::Synthetic(size));
        files.push(TableFile::descriptor(bucket, key, size, Rc::new(meta)));
    }
    TableSpec::new(table, schema(), files, rows_per_file * opts.num_files as u64)
}

/// Full-domain stats for the non-sorted columns (no pruning power, but
/// present like Parquet writes them).
fn full_range_stats(profile: &StorageProfile) -> Vec<Option<ChunkStats>> {
    use crate::lineitem::dates;
    let mut out = vec![None; profile.compressed_per_row.len()];
    out[cols::QUANTITY] = Some(ChunkStats::F64 { min: 1.0, max: 50.0 });
    out[cols::DISCOUNT] = Some(ChunkStats::F64 { min: 0.0, max: 0.10 });
    out[cols::TAX] = Some(ChunkStats::F64 { min: 0.0, max: 0.08 });
    out[cols::RETURNFLAG] = Some(ChunkStats::I64 { min: 0, max: 2 });
    out[cols::LINESTATUS] = Some(ChunkStats::I64 { min: 0, max: 1 });
    out[cols::COMMITDATE] = Some(ChunkStats::I64 { min: dates::START + 30, max: dates::END + 90 });
    out[cols::RECEIPTDATE] = Some(ChunkStats::I64 { min: dates::START + 2, max: dates::END });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambada_sim::{CloudConfig, Simulation};

    #[test]
    fn real_staging_produces_readable_files() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let opts = StageOptions { scale: 0.002, num_files: 4, ..StageOptions::default() };
        let spec = stage_real(&cloud, "tpch", "lineitem", opts);
        assert_eq!(spec.files.len(), 4);
        assert_eq!(spec.total_rows, 12_000);
        assert!(spec.files.iter().all(|f| !f.is_descriptor()));
        assert_eq!(cloud.s3.bucket_object_count("tpch"), 4);
        // Files must actually parse.
        let body = sim.block_on({
            let c = cloud.clone();
            let key = spec.files[0].key.clone();
            async move { c.driver_s3().get("tpch", &key).await.unwrap() }
        });
        let (meta, groups) = lambada_format::read_all(body.as_real().unwrap()).unwrap();
        assert_eq!(meta.schema.len(), 16);
        assert!(!groups.is_empty());
    }

    #[test]
    fn real_files_are_sorted_by_shipdate_across_files() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let opts = StageOptions { scale: 0.001, num_files: 3, ..StageOptions::default() };
        let spec = stage_real(&cloud, "tpch", "lineitem", opts);
        let mut last_max = i64::MIN;
        for f in &spec.files {
            let body = sim.block_on({
                let c = cloud.clone();
                let key = f.key.clone();
                async move { c.driver_s3().get("tpch", &key).await.unwrap() }
            });
            let meta = lambada_format::read_footer(body.as_real().unwrap()).unwrap();
            for rg in &meta.row_groups {
                let Some(ChunkStats::I64 { min, max }) = rg.columns[cols::SHIPDATE].stats else {
                    panic!("shipdate stats missing");
                };
                assert!(min >= last_max, "files overlap in shipdate");
                last_max = max;
            }
        }
    }

    #[test]
    fn descriptor_staging_matches_paper_shape() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let opts = DescriptorOptions { sample_rows: 20_000, ..DescriptorOptions::default() };
        let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
        assert_eq!(spec.files.len(), 320);
        assert_eq!(spec.total_rows, 6_000_000_000);
        // §5.1: Parquet with standard encoding + GZIP is 151 GiB at SF1000
        // => ~500 MB per file. Our codec is weaker than GZIP; accept a
        // 250 MB - 1.2 GB band per file.
        let per_file = spec.files[0].size as f64;
        assert!(
            (250e6..1200e6).contains(&per_file),
            "per-file bytes {per_file:.0} outside plausible band"
        );
        // Descriptor metadata must validate structurally.
        for f in spec.files.iter().take(3) {
            f.meta.as_ref().unwrap().validate().unwrap();
        }
    }

    #[test]
    fn descriptor_shipdate_stats_partition_the_domain() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let opts = DescriptorOptions {
            num_files: 16,
            sample_rows: 20_000,
            ..DescriptorOptions::default()
        };
        let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
        let mut last = i64::MIN / 2;
        for f in &spec.files {
            for rg in &f.meta.as_ref().unwrap().row_groups {
                let Some(ChunkStats::I64 { min, max }) = rg.columns[cols::SHIPDATE].stats else {
                    panic!("no shipdate stats");
                };
                assert!(min <= max);
                assert!(min >= last - 1, "row groups must be nearly sorted");
                last = max;
            }
        }
    }
}
