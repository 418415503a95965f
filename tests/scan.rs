//! The scan operator's request plan (§4.3): a latency-bound row group is
//! one ranged GET, a bandwidth-bound one is a GET per chunk split at
//! `max_request_bytes`, both yield the same batches, and a footer that
//! lies about a chunk's place in the file is an error before any request
//! is sized from it.

use lambada::core::{
    scan_table, ComputeCostModel, CoreError, ScanConfig, ScanItem, ScanMetrics, TableFile,
    TableSpec, WorkerEnv,
};
use lambada::engine::{col, lit_i64, Column, DataType, Expr, Field, RecordBatch, Schema};
use lambada::format::{chunk_rows, write_file, FileMeta, WriterOptions};
use lambada::sim::services::object_store::Body;
use lambada::sim::sync::mpsc;
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation};
use lambada::workloads::{stage_descriptors, stage_table_real, DescriptorOptions};

const ROW_GROUPS: usize = 6;
const ROWS: i64 = 6_000;

/// `k` ascends, so row group `g` holds `k` in `[1000 g, 1000 (g + 1))`;
/// `pad` is never scanned and sits between the scanned chunks.
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("pad", DataType::Float64),
        Field::new("v", DataType::Int64),
        Field::new("x", DataType::Float64),
    ])
}

fn columns() -> Vec<Column> {
    vec![
        Column::I64((0..ROWS).collect()),
        Column::F64((0..ROWS).map(|i| i as f64 * 0.5).collect()),
        Column::I64((0..ROWS).map(|i| (i * 7919) % 1013).collect()),
        Column::F64((0..ROWS).map(|i| ((i * 31) % 97) as f64 / 7.0).collect()),
    ]
}

const SCANNED: [usize; 3] = [0, 2, 3];

/// Run one worker's scan of `files` to its end and drain what it emitted.
fn scan(
    sim: &Simulation,
    cloud: &Cloud,
    cfg: ScanConfig,
    spec: &TableSpec,
    files: &[TableFile],
    columns: &[usize],
    predicate: Option<Expr>,
) -> Result<(ScanMetrics, Vec<ScanItem>), CoreError> {
    let env = WorkerEnv::bare(cloud, 0, 2048, ComputeCostModel::default());
    sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let metrics =
            scan_table(&env, &cfg, files, &spec.schema, columns, predicate.as_ref(), tx).await?;
        let mut items = Vec::new();
        while let Some(item) = rx.recv().await {
            items.push(item);
        }
        Ok((metrics, items))
    })
}

fn batches(items: Vec<ScanItem>) -> Vec<RecordBatch> {
    items
        .into_iter()
        .map(|item| match item {
            ScanItem::Batch(batch) => batch,
            ScanItem::Modeled { .. } => panic!("a real file scans into batches"),
        })
        .collect()
}

/// The per-chunk plan, forced on any file: a request limit below every
/// chunk (which is also the coalescing limit).
fn per_chunk(max_request_bytes: u64) -> ScanConfig {
    ScanConfig { max_request_bytes, ..ScanConfig::default() }
}

#[test]
fn a_small_row_group_is_one_get_and_the_same_batches_as_a_get_per_chunk() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let spec =
        stage_table_real(&cloud, "data", "t", schema(), vec![columns()], ROWS as u64, ROW_GROUPS);
    // `k >= 2000` prunes the first two row groups by their statistics.
    let predicate = || Some(col(0).ge(lit_i64(2000)));
    let surviving = ROW_GROUPS as u64 - 2;

    let (one, one_items) =
        scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files, &SCANNED, predicate())
            .unwrap();
    assert_eq!((one.row_groups_total, one.row_groups_pruned), (ROW_GROUPS as u64, 2));
    assert_eq!(one.get_requests, 1 + surviving, "the footer, then one GET per row group");

    let (many, many_items) =
        scan(&sim, &cloud, per_chunk(512), &spec, &spec.files, &SCANNED, predicate()).unwrap();
    assert!(
        many.get_requests > 1 + surviving * SCANNED.len() as u64,
        "chunks above the request limit are split: {} GETs",
        many.get_requests
    );
    // Requested bytes are counted: the single GET reads over `pad`.
    assert!(one.bytes_read > many.bytes_read);
    assert_eq!(one.rows, many.rows);

    let (one_batches, many_batches) = (batches(one_items), batches(many_items));
    assert_eq!(one_batches.len(), surviving as usize);
    assert_eq!(one_batches, many_batches, "bit-identical, whichever way the bytes came");
    let kept: Vec<usize> = (2000..ROWS as usize).collect();
    let expected: Vec<Column> =
        SCANNED.iter().map(|&c| columns().swap_remove(c).gather(&kept)).collect();
    let whole = RecordBatch::concat(one_batches[0].schema().clone(), &one_batches).unwrap();
    assert_eq!(whole.columns(), expected.as_slice());
}

/// Σ over the scanned chunks of ⌈len / max_request_bytes⌉, plus the footer.
fn closed_form(file: &TableFile, columns: &[usize], max_request_bytes: u64) -> u64 {
    let meta = file.meta.as_ref().expect("descriptor file");
    let chunks = meta.row_groups.iter().flat_map(|rg| columns.iter().map(|&c| &rg.columns[c]));
    1 + chunks.map(|c| c.compressed_len.div_ceil(max_request_bytes)).sum::<u64>()
}

#[test]
fn a_descriptor_file_with_paper_scale_row_groups_keeps_one_get_per_chunk() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let q1_columns = [4, 5, 6, 7, 8, 9, 10];
    let opts = DescriptorOptions { scale: 10.0, num_files: 2, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    let cfg = ScanConfig { max_request_bytes: 4 << 20, ..ScanConfig::default() };
    let file = &spec.files[..1];
    let (metrics, items) = scan(&sim, &cloud, cfg, &spec, file, &q1_columns, None).unwrap();
    assert!(items.iter().all(|i| matches!(i, ScanItem::Modeled { .. })));
    let want = closed_form(&file[0], &q1_columns, cfg.max_request_bytes);
    assert!(want > 1 + (q1_columns.len() * opts.row_groups_per_file) as u64, "chunks are split");
    assert_eq!(metrics.get_requests, want);

    // The plan follows the bytes, not the kind of file: the same table at
    // a scale where a row group is latency-bound is one GET per row group.
    let small = DescriptorOptions { scale: 0.01, num_files: 2, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "small", &small);
    let (metrics, _) =
        scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files[..1], &q1_columns, None)
            .unwrap();
    assert_eq!(metrics.get_requests, 1 + small.row_groups_per_file as u64);
}

/// Stage the test table as one file whose footer was rewritten by `lie`.
fn stage_with_footer(cloud: &Cloud, key: &str, lie: impl Fn(&mut FileMeta)) -> TableFile {
    let file_schema = schema().to_file_schema().unwrap();
    let data: Vec<_> = columns().into_iter().map(|c| c.into_data().unwrap()).collect();
    let groups = chunk_rows(&data, ROWS as usize / ROW_GROUPS);
    let mut bytes = write_file(file_schema, &groups, WriterOptions::default()).unwrap();
    let mut meta = FileMeta::parse_tail(&bytes).unwrap();
    bytes.truncate(bytes.len() - meta.encode_footer().len());
    lie(&mut meta);
    bytes.extend_from_slice(&meta.encode_footer());
    let size = bytes.len() as u64;
    cloud.s3.create_bucket("lies");
    cloud.s3.stage("lies", key, Body::from_vec(bytes));
    TableFile::real("lies", key, size)
}

#[test]
fn a_lying_footer_is_an_error_before_it_sizes_a_request() {
    type Lie = fn(&mut FileMeta);
    let lies: [(&str, Lie); 4] = [
        ("honest", |_| {}),
        ("len-past-the-end", |m| m.row_groups[3].columns[2].compressed_len += 1 << 20),
        ("len-max", |m| m.row_groups[3].columns[2].compressed_len = u64::MAX),
        ("offset-max", |m| m.row_groups[5].columns[0].offset = u64::MAX),
    ];
    for (name, lie) in lies {
        // The coalesced plan, and the per-chunk plan whose request list a
        // claimed length of 2^64 would have sized.
        for cfg in [ScanConfig::default(), per_chunk(512)] {
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let file = stage_with_footer(&cloud, name, lie);
            let spec = TableSpec::new("t", schema(), vec![file], ROWS as u64);
            let got = scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None);
            if name == "honest" {
                assert_eq!(got.unwrap().0.rows, ROWS as u64);
                continue;
            }
            let err = got.map(|(metrics, _)| metrics).unwrap_err();
            assert!(matches!(err, CoreError::Format(_)), "{name}: {err}");
            assert_eq!(cloud.billing.units(CostItem::S3Get), 1.0, "{name}: only the footer");
            assert!(sim.now().as_secs_f64() < 0.1, "{name}: failed at {:?}", sim.now());
        }
    }
}
