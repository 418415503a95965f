//! The scan operator's request plan (§4.3). A latency-bound file is one
//! GET: its footer read is the whole file. A larger file's footer read is
//! its tail, and a row group whose scanned span lies inside that tail
//! costs no request. Any other latency-bound row group is one ranged GET,
//! a bandwidth-bound one is a GET per chunk split at `max_request_bytes`.
//! An inline file rode the worker's payload and costs no request at all.
//! Every plan yields the same batches, a footer that lies about a chunk's
//! place in the file is an error before any request or slice is sized
//! from it — as is an inline file cut short — a worker's files are read a
//! connection each at once, the next footer GET sent as one lands and at
//! most `connections` on the wire, a failed scan requests no file after
//! those in flight, and a row group read a GET per chunk decodes each
//! chunk as it lands, on as many lanes as the worker has hardware threads
//! — or fails with a typed error, leaving nothing running, when a chunk's
//! GET fails.

use std::time::Duration;

mod common;

use lambada::core::{
    scan_table, ComputeCostModel, CoreError, ScanConfig, ScanItem, ScanMetrics, TableFile,
    TableSpec, WorkerEnv,
};
use lambada::engine::{col, lit_i64, Column, DataType, Expr, Field, RecordBatch, Schema};
use lambada::format::{chunk_rows, write_file, FileMeta, WriterOptions, TRAILER_LEN};
use lambada::sim::services::object_store::Body;
use lambada::sim::sync::{mpsc, select2, Either};
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation, Tally};
use lambada::workloads::{stage_descriptors, DescriptorOptions};

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

fn columns(rows: i64) -> Vec<Column> {
    vec![
        Column::I64((0..rows).collect()),
        Column::F64((0..rows).map(|i| i as f64 * 0.5).collect()),
        Column::I64((0..rows).map(|i| (i * 7919) % 1013).collect()),
        Column::F64((0..rows).map(|i| ((i * 31) % 97) as f64 / 7.0).collect()),
    ]
}

const SCANNED: [usize; 3] = [0, 2, 3];

/// The test table's rows `0..rows` as one file of `row_groups` row groups.
fn write(rows: i64, row_groups: usize) -> Vec<u8> {
    let file_schema = schema().to_file_schema().unwrap();
    let data: Vec<_> = columns(rows).into_iter().map(|c| c.into_data().unwrap()).collect();
    let groups = chunk_rows(&data, (rows as usize).div_ceil(row_groups));
    write_file(file_schema, &groups, WriterOptions::default()).unwrap()
}

fn stage(cloud: &Cloud, bucket: &str, key: &str, bytes: Vec<u8>) -> TableFile {
    let size = bytes.len() as u64;
    cloud.s3.create_bucket(bucket);
    cloud.s3.stage(bucket, key, Body::from_vec(bytes));
    TableFile::real(bucket, key, size)
}

/// The bytes one connection moves within one first-byte latency: the
/// latency-bound limit whenever `max_request_bytes` is above it.
fn latency_limit(cloud: &Cloud) -> u64 {
    let config = &cloud.config;
    (config.s3.ttfb_median.as_secs_f64() * config.nic.per_conn) as u64
}

/// Run one worker's scan of `files` to its end and drain what it emitted,
/// beside what its client requested.
fn scan(
    sim: &Simulation,
    cloud: &Cloud,
    cfg: ScanConfig,
    spec: &TableSpec,
    files: &[TableFile],
    columns: &[usize],
    predicate: Option<Expr>,
) -> Result<(ScanMetrics, Tally, Vec<ScanItem>), CoreError> {
    let env = WorkerEnv::bare(cloud, 0, 2048, ComputeCostModel::default());
    sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let metrics =
            scan_table(&env, &cfg, files, &spec.schema, columns, predicate.as_ref(), tx).await?;
        let mut items = Vec::new();
        while let Some(item) = rx.recv().await {
            items.push(item);
        }
        Ok((metrics, env.tally(), items))
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
/// chunk (which is also the latency-bound limit of files and row groups),
/// and a footer read of the trailer alone, so the body the footer comes
/// in holds no row group.
fn per_chunk(max_request_bytes: u64) -> ScanConfig {
    ScanConfig {
        max_request_bytes,
        metadata_tail_bytes: TRAILER_LEN as u64,
        ..ScanConfig::default()
    }
}

#[test]
fn a_small_row_group_is_one_get_and_the_same_batches_as_a_get_per_chunk() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let file = stage(&cloud, "data", "t", write(ROWS, ROW_GROUPS));
    let spec = TableSpec::new("t", schema(), vec![file], ROWS as u64);
    let size = spec.files[0].size;
    assert!(size <= latency_limit(&cloud), "the file is latency-bound");
    // `k >= 2000` prunes the first two row groups by their statistics.
    let predicate = || Some(col(0).ge(lit_i64(2000)));
    let surviving = ROW_GROUPS as u64 - 2;

    let (file, file_tally, file_items) =
        scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files, &SCANNED, predicate())
            .unwrap();
    assert_eq!((file.row_groups_total, file.row_groups_pruned), (ROW_GROUPS as u64, 2));
    assert_eq!(file_tally.gets, 1, "the footer read is the whole file");
    assert_eq!(file_tally.bytes_read, size);

    // Below the file, above every row group: the trailer, the footer, then
    // one GET per surviving row group.
    let (groups, group_tally, group_items) =
        scan(&sim, &cloud, per_chunk(size / 2), &spec, &spec.files, &SCANNED, predicate()).unwrap();
    assert_eq!(group_tally.gets, 2 + surviving);

    let (many, many_tally, many_items) =
        scan(&sim, &cloud, per_chunk(512), &spec, &spec.files, &SCANNED, predicate()).unwrap();
    assert!(
        many_tally.gets > 2 + surviving * SCANNED.len() as u64,
        "chunks above the request limit are split: {} GETs",
        many_tally.gets
    );
    // Requested bytes are counted: one GET a row group reads over `pad`,
    // the whole file reads everything.
    assert!(
        file_tally.bytes_read > group_tally.bytes_read
            && group_tally.bytes_read > many_tally.bytes_read
    );
    assert_eq!((file.rows, groups.rows), (many.rows, many.rows));

    let file_batches = batches(file_items);
    assert_eq!(file_batches.len(), surviving as usize);
    assert_eq!(file_batches, batches(group_items), "bit-identical, whichever way the bytes came");
    assert_eq!(file_batches, batches(many_items));
    let kept: Vec<usize> = (2000..ROWS as usize).collect();
    let expected: Vec<Column> =
        SCANNED.iter().map(|&c| columns(ROWS).swap_remove(c).gather(&kept)).collect();
    let whole = RecordBatch::concat(file_batches[0].schema().clone(), &file_batches).unwrap();
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
    let (_, tally, items) = scan(&sim, &cloud, cfg, &spec, file, &q1_columns, None).unwrap();
    assert!(items.iter().all(|i| matches!(i, ScanItem::Modeled { .. })));
    let want = closed_form(&file[0], &q1_columns, cfg.max_request_bytes);
    assert!(want > 1 + (q1_columns.len() * opts.row_groups_per_file) as u64, "chunks are split");
    assert_eq!(tally.gets, want);

    // The plan follows the bytes, not the kind of file: the same table at
    // a scale where the file is latency-bound is one GET, and its row
    // groups are modelled from that one body.
    let small = DescriptorOptions { scale: 0.01, num_files: 2, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "small", &small);
    assert!(spec.files[0].size <= latency_limit(&cloud));
    let (_, tally, items) =
        scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files[..1], &q1_columns, None)
            .unwrap();
    assert_eq!(tally.gets, 1);
    assert_eq!(tally.bytes_read, spec.files[0].size);
    assert_eq!(items.len(), small.row_groups_per_file);
    assert!(items.iter().all(|i| matches!(i, ScanItem::Modeled { .. })));
}

/// A file of four ~40 KB row groups above a 64 KiB request limit, and its
/// footer; the default 64 KiB footer read holds the last row group alone.
fn four_large_row_groups(cloud: &Cloud, key: &str) -> (TableSpec, FileMeta) {
    let rows = 28_000;
    let bytes = write(rows, 4);
    let meta = FileMeta::parse_tail(&bytes).unwrap();
    let file = stage(cloud, "data", key, bytes);
    (TableSpec::new("t", schema(), vec![file], rows as u64), meta)
}

/// First and one past the last scanned byte of each row group.
fn spans(meta: &FileMeta, columns: &[usize]) -> Vec<(u64, u64)> {
    let span = |rg: &lambada::format::RowGroupMeta| {
        let chunks = columns.iter().map(|&c| &rg.columns[c]);
        let start = chunks.clone().map(|c| c.offset).min().unwrap();
        (start, chunks.map(|c| c.offset + c.compressed_len).max().unwrap())
    };
    meta.row_groups.iter().map(span).collect()
}

#[test]
fn a_row_group_inside_the_footer_tail_costs_no_get() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (spec, meta) = four_large_row_groups(&cloud, "inside");
    let size = spec.files[0].size;
    let cfg = ScanConfig { max_request_bytes: 64 << 10, ..ScanConfig::default() };
    assert_eq!(cfg.metadata_tail_bytes, 64 << 10, "the default footer read");
    let tail_start = size - cfg.metadata_tail_bytes;
    let spans = spans(&meta, &SCANNED);
    let inside: Vec<bool> = spans.iter().map(|&(start, _)| start >= tail_start).collect();
    assert_eq!(inside, [false, false, false, true], "the tail holds the last row group alone");
    assert!(size > cfg.max_request_bytes, "the file is not read whole");
    assert!(spans.iter().all(|(start, end)| end - start <= cfg.max_request_bytes));

    let (metrics, tally, items) =
        scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None).unwrap();
    // The footer, then one GET per row group — less the one the tail held.
    assert_eq!(tally.gets, 1 + 4 - 1);
    let read_over: u64 = spans[..3].iter().map(|(start, end)| end - start).sum();
    assert_eq!(tally.bytes_read, cfg.metadata_tail_bytes + read_over);

    let (reference, _, reference_items) =
        scan(&sim, &cloud, per_chunk(512), &spec, &spec.files, &SCANNED, None).unwrap();
    assert_eq!(metrics.rows, reference.rows);
    assert_eq!(batches(items), batches(reference_items));
}

#[test]
fn a_row_group_partly_inside_the_tail_takes_its_own_get() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (spec, meta) = four_large_row_groups(&cloud, "partly");
    let size = spec.files[0].size;
    let (start, end) = spans(&meta, &SCANNED)[3];
    // The tail edge cuts the last row group's scanned span in half.
    let cfg = ScanConfig {
        max_request_bytes: 64 << 10,
        metadata_tail_bytes: size - (start + end) / 2,
        ..ScanConfig::default()
    };
    let (_, tally, items) = scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None).unwrap();
    assert_eq!(tally.gets, 1 + 4, "the footer, then one GET per row group");
    let (_, _, reference_items) =
        scan(&sim, &cloud, per_chunk(512), &spec, &spec.files, &SCANNED, None).unwrap();
    assert_eq!(batches(items), batches(reference_items));
}

/// An inline file is read from the body it rode in on: the same batches
/// as the stored file, pruned alike, with no GET, no byte read from the
/// store and nothing billed.
#[test]
fn an_inline_file_is_read_from_its_payload_with_no_request() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let bytes = write(ROWS, ROW_GROUPS);
    let stored = stage(&cloud, "data", "t/stored", bytes.clone());
    let inline = TableFile::inline("t/inline", Body::from_vec(bytes));
    assert_eq!((inline.size, inline.inline_bytes()), (stored.size, stored.size));
    let spec = TableSpec::new("t", schema(), vec![stored, inline], ROWS as u64);
    let keep = Some(col(0).ge(lit_i64(3_500)));
    for predicate in [None, keep] {
        let got = |file: &TableFile| {
            let files = std::slice::from_ref(file);
            scan(&sim, &cloud, ScanConfig::default(), &spec, files, &SCANNED, predicate.clone())
                .unwrap()
        };
        let before = cloud.billing.snapshot();
        let (metrics, tally, items) = got(&spec.files[1]);
        assert_eq!((tally.gets, tally.bytes_read), (0, 0));
        assert_eq!(cloud.billing.snapshot().since(&before).units(CostItem::S3Get), 0.0);
        let (stored_metrics, stored_tally, stored_items) = got(&spec.files[0]);
        assert_eq!(stored_tally.gets, 1, "the stored file is one GET");
        assert_eq!(metrics.row_groups_pruned, stored_metrics.row_groups_pruned);
        assert_eq!(batches(items), batches(stored_items));
    }
}

/// An inline body cut anywhere in its footer or trailer is a typed format
/// error naming the file's key, never a panic.
#[test]
fn an_inline_body_cut_short_is_a_format_error_naming_its_key() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let bytes = write(ROWS, ROW_GROUPS);
    let footer = FileMeta::parse_tail(&bytes).unwrap().encode_footer().len();
    let ends = [footer / 2, 1, TRAILER_LEN / 2, footer + TRAILER_LEN / 2, bytes.len() - 1];
    for cut in ends {
        let body = Body::from_vec(bytes[..bytes.len() - cut].to_vec());
        let spec = TableSpec::new("t", schema(), vec![TableFile::inline("t/b7/p00001", body)], 0);
        let got = scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files, &SCANNED, None);
        match got {
            Err(CoreError::Format(m)) => assert!(m.contains("t/b7/p00001"), "cut {cut}: {m}"),
            Err(e) => panic!("cut {cut}: not a format error: {e}"),
            Ok(_) => panic!("cut {cut}: a cut body scanned"),
        }
    }
}

/// Stage the test table as one file whose footer was rewritten by `lie`.
fn stage_with_footer(cloud: &Cloud, key: &str, lie: impl Fn(&mut FileMeta)) -> TableFile {
    let mut bytes = write(ROWS, ROW_GROUPS);
    let mut meta = FileMeta::parse_tail(&bytes).unwrap();
    bytes.truncate(bytes.len() - meta.encode_footer().len());
    lie(&mut meta);
    bytes.extend_from_slice(&meta.encode_footer());
    stage(cloud, "lies", key, bytes)
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
        // The whole-file read, whose body a lying chunk would slice, and a
        // 4 KiB tail before the per-chunk plan, whose request list a
        // claimed length of 2^64 would have sized.
        let tail = ScanConfig { metadata_tail_bytes: 4 << 10, ..per_chunk(512) };
        for cfg in [ScanConfig::default(), tail] {
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let file = stage_with_footer(&cloud, name, lie);
            let spec = TableSpec::new("t", schema(), vec![file], ROWS as u64);
            let got = scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None);
            if name == "honest" {
                assert_eq!(got.unwrap().0.rows, ROWS as u64);
                continue;
            }
            let err = got.map(|(metrics, _, _)| metrics).unwrap_err();
            assert!(matches!(err, CoreError::Format(_)), "{name}: {err}");
            assert_eq!(cloud.billing.units(CostItem::S3Get), 1.0, "{name}: only the footer read");
            assert!(sim.now().as_secs_f64() < 0.1, "{name}: failed at {:?}", sim.now());
        }
    }
}

#[test]
fn a_footer_longer_than_the_whole_file_read_is_an_error_after_one_get() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut bytes = write(ROWS, ROW_GROUPS);
    // The trailer's footer length claims more bytes than the file holds.
    let at = bytes.len() - TRAILER_LEN;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let file = stage(&cloud, "lies", "long", bytes);
    assert!(file.size <= latency_limit(&cloud), "the footer read is the whole file");
    let spec = TableSpec::new("t", schema(), vec![file], ROWS as u64);
    let err = scan(&sim, &cloud, ScanConfig::default(), &spec, &spec.files, &SCANNED, None)
        .map(|(metrics, _, _)| metrics)
        .unwrap_err();
    assert!(matches!(err, CoreError::Format(_)), "{err}");
    assert_eq!(cloud.billing.units(CostItem::S3Get), 1.0, "a retry has no more bytes to give");
}

/// A scan reads a file per connection at once, so a failed file stops
/// the scan with the reads beside it in flight: those are dropped, and no
/// file after them is requested.
#[test]
fn a_failed_scan_stops_requesting() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cfg = ScanConfig::default();
    let mut files = vec![stage_with_footer(&cloud, "f0", |m| {
        m.row_groups[3].columns[2].compressed_len += 1 << 20;
    })];
    for i in 1..cfg.connections + 2 {
        files.push(stage_with_footer(&cloud, &format!("f{i}"), |_| {}));
    }
    let spec = TableSpec::new("t", schema(), files, 3 * ROWS as u64);
    let before = sim.live_tasks();
    let err = scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None)
        .map(|(metrics, _, _)| metrics)
        .unwrap_err();
    assert!(matches!(err, CoreError::Format(_)), "{err}");
    // Drain the simulation: whatever the scan left running runs out.
    sim.block_on(sim.handle().sleep(Duration::from_secs(60)));
    let gets = cloud.billing.units(CostItem::S3Get);
    assert!(
        (1.0..=cfg.connections as f64).contains(&gets),
        "{gets} GETs: no file after those in flight with the failed one"
    );
    assert_eq!(sim.live_tasks(), before, "the metadata prefetch has ended");
}

/// A worker's latency-bound files are one GET each, all in flight at once:
/// a round of connections' files costs one first-byte latency, not one per
/// file, and scans into the same batches, in file order.
#[test]
fn a_round_of_latency_bound_files_is_read_at_once() {
    let cfg = ScanConfig::default();
    let run = |files: usize| {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let files: Vec<TableFile> = (0..files)
            .map(|i| stage(&cloud, "data", &format!("f{i}"), write(ROWS, ROW_GROUPS)))
            .collect();
        let spec = TableSpec::new("t", schema(), files, ROWS as u64);
        let (metrics, tally, items) =
            scan(&sim, &cloud, cfg, &spec, &spec.files, &SCANNED, None).unwrap();
        (sim.now().as_secs_f64(), metrics, tally, batches(items))
    };
    let (one, _, one_tally, one_batches) = run(1);
    let (round, metrics, tally, batches) = run(cfg.connections);
    assert_eq!(tally.gets, cfg.connections as u64, "one GET per file");
    assert_eq!(metrics.files, cfg.connections as u64);
    assert!(round < 2.0 * one, "a round took {round} s, one file {one} s");
    assert_eq!(one_tally.gets, 1);
    for (i, chunk) in batches.chunks(one_batches.len()).enumerate() {
        assert_eq!(chunk, one_batches.as_slice(), "file {i}'s batches, in order");
    }
}

/// A file above the latency-bound limit whose row groups are each wider
/// than it is read a GET per chunk, and each row group is decoded chunk
/// by chunk as its GETs land: with one connection the chunks land one
/// after the other, and the first chunk's decode starts while the row
/// group's last chunk is still on the wire. The batches are the table's
/// rows, bit for bit, and the GETs are the per-chunk plan's.
#[test]
fn a_wide_row_group_decodes_its_chunks_as_they_land() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (rows, row_groups) = (30_000, 3);
    let bytes = write(rows, row_groups);
    let meta = FileMeta::parse_tail(&bytes).unwrap();
    let file = stage(&cloud, "data", "wide", bytes);
    let spec = TableSpec::new("t", schema(), vec![file], rows as u64);
    let cfg = ScanConfig { connections: 1, row_group_pipeline: 1, ..per_chunk(16 << 10) };
    let spans = spans(&meta, &SCANNED);
    assert!(spec.files[0].size > cfg.max_request_bytes, "the file is not latency-bound");
    assert!(spans.iter().all(|(start, end)| end - start > cfg.max_request_bytes), "{spans:?}");

    // Decoding is slowed down so that the samples below see it; it moves
    // no request.
    let costs = ComputeCostModel {
        decode_bytes_per_s: 1e6,
        decompress_bytes_per_s: 1e6,
        ..ComputeCostModel::default()
    };
    let env = WorkerEnv::bare(&cloud, 0, 2048, costs);
    let (cpu, link) = (&env.ctx.instance.cpu, env.s3.link());
    // Every 100 µs: whether the CPU is busy, and the bytes the link moved.
    let (samples, items) = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let scanned = scan_table(&env, &cfg, &spec.files, &spec.schema, &SCANNED, None, tx);
        let mut samples = Vec::new();
        let sample = async {
            loop {
                samples.push((sim.now(), cpu.active() > 0, link.total_bytes()));
                sim.handle().sleep(Duration::from_micros(100)).await;
            }
        };
        let metrics = match select2(scanned, sample).await {
            Either::Left(metrics) => metrics.unwrap(),
            Either::Right(never) => never,
        };
        assert_eq!(metrics.rows, rows as u64);
        let mut items = Vec::new();
        while let Some(item) = rx.recv().await {
            items.push(item);
        }
        (samples, items)
    });

    // The rows, bit for bit.
    let batches = batches(items);
    assert_eq!(batches.len(), row_groups);
    let whole = RecordBatch::concat(batches[0].schema().clone(), &batches).unwrap();
    let expected: Vec<Column> = SCANNED.iter().map(|&c| columns(rows).swap_remove(c)).collect();
    assert_eq!(whole.columns(), expected.as_slice());

    // The per-chunk plan: the trailer, the footer, then every scanned
    // chunk split at the request limit.
    let chunks = meta.row_groups.iter().flat_map(|rg| SCANNED.iter().map(|&c| &rg.columns[c]));
    let per_chunk_gets: u64 =
        chunks.clone().map(|c| c.compressed_len.div_ceil(cfg.max_request_bytes)).sum();
    let tally = env.tally();
    assert_eq!(tally.gets, 2 + per_chunk_gets);

    // The footer's bytes, then the first row group's: one row group is in
    // flight at a time, so the link moves nothing else in between.
    let footer = tally.bytes_read - chunks.map(|c| c.compressed_len).sum::<u64>();
    let first: u64 = SCANNED.iter().map(|&c| meta.row_groups[0].columns[c].compressed_len).sum();
    let decoding = samples.iter().find(|&&(_, busy, moved)| busy && moved > footer as f64);
    let landed = samples.iter().find(|&&(_, _, moved)| moved >= (footer + first) as f64 - 0.5);
    let (Some(&(decoding, ..)), Some(&(landed, ..))) = (decoding, landed) else {
        panic!("no decode or no landing sampled: {samples:?}");
    };
    assert!(decoding < landed, "first decode at {decoding:?}, last chunk landed at {landed:?}");
}

/// One worker's scan of one SF-1000 file's Q1 columns at `memory_mib`:
/// when it ended, when its first chunk's decode began, its CPU charges,
/// the decode seconds of all its chunks and the most charges sampled
/// running at once.
struct Sf1000Scan {
    end: f64,
    decoding_from: f64,
    charges: u64,
    decode_secs: f64,
    peak_lanes: usize,
}

fn scan_one_sf1000_file(memory_mib: u32) -> Sf1000Scan {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let spec = stage_descriptors(&cloud, "tpch", "lineitem", &DescriptorOptions::default());
    let (file, q1_columns) = (&spec.files[..1], [4, 5, 6, 7, 8, 9, 10]);
    let env = WorkerEnv::bare(&cloud, 0, memory_mib, ComputeCostModel::default());
    let meta = file[0].meta.as_ref().expect("descriptor file");
    let chunks = meta.row_groups.iter().flat_map(|rg| q1_columns.iter().map(|&c| &rg.columns[c]));
    let decode_secs: f64 = chunks
        .map(|c| {
            let heavy = c.compression == lambada::format::Compression::Lz;
            env.costs.chunk_decode_seconds(c.compressed_len, c.uncompressed_len, heavy)
        })
        .sum();
    let cfg = ScanConfig::default();
    let (cpu, link) = (&env.ctx.instance.cpu, env.s3.link());
    // Every millisecond: the charges running, and the bytes moved.
    let (end, samples) = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let scanned = scan_table(&env, &cfg, file, &spec.schema, &q1_columns, None, tx);
        let mut samples = Vec::new();
        let sample = async {
            loop {
                samples.push((sim.now().as_secs_f64(), cpu.active(), link.total_bytes()));
                sim.handle().sleep(Duration::from_millis(1)).await;
            }
        };
        match select2(scanned, sample).await {
            Either::Left(metrics) => assert_eq!(metrics.unwrap().files, 1),
            Either::Right(never) => never,
        }
        while rx.recv().await.is_some() {}
        (sim.now().as_secs_f64(), samples)
    });
    // The footer's read is the file's tail (the link counts it to a
    // fraction of a byte); the chunks' reads follow it, and the first
    // decode begins once the first of them has landed.
    let footer = cfg.metadata_tail_bytes as f64 + 1.0;
    let decoding = samples.iter().find(|&&(_, busy, moved)| busy > 0 && moved > footer);
    let peak_lanes = samples.iter().map(|&(_, busy, _)| busy).max().unwrap_or(0);
    let Some(&(decoding_from, ..)) = decoding else { panic!("no decode sampled") };
    Sf1000Scan { end, decoding_from, charges: cpu.jobs_joined(), decode_secs, peak_lanes }
}

/// A 2048 MiB worker has two hardware threads, so its row groups decode
/// on two lanes: from the first decode on, the scan of one SF-1000 file
/// ends sooner than its decode charges could run one after the other on
/// one vCPU.
#[test]
fn two_lanes_decode_an_sf1000_file_faster_than_one_vcpu_serially() {
    let scan = scan_one_sf1000_file(2048);
    let decoding = scan.end - scan.decoding_from;
    assert!(
        decoding < scan.decode_secs,
        "{decoding} s decoding, {} s of charges",
        scan.decode_secs
    );
}

/// A worker decodes on one lane per hardware thread, ⌈vCPUs⌉ =
/// ⌈memory / 1792 MiB⌉: one up to 1792 MiB, two up to 3584 MiB (the
/// paper's 3008 MiB functions included), a third above.
#[test]
fn a_worker_decodes_on_one_lane_per_vcpu() {
    for (memory_mib, lanes) in [(1792, 1), (2048, 2), (3008, 2), (3584, 2), (4096, 3), (5376, 3)] {
        assert_eq!(scan_one_sf1000_file(memory_mib).peak_lanes, lanes, "{memory_mib} MiB");
    }
}

/// A 1792 MiB worker has one vCPU, so one lane: the scan of one SF-1000
/// file cannot beat its charges run one after the other, and its time and
/// charge count are the serial decode's, pinned from the scan as it was
/// before lanes existed (bit for bit).
#[test]
fn one_lane_decodes_an_sf1000_file_as_the_serial_scan_did() {
    let scan = scan_one_sf1000_file(1792);
    assert!(scan.end - scan.decoding_from >= scan.decode_secs);
    assert_eq!((scan.end.to_bits(), scan.charges), (4611724318475267344, 10), "{}", scan.end);
}

/// A latency-bound real file is one GET, and each row group lands with
/// it in one piece: one charge on one lane, whatever the lanes. Its
/// virtual time and charge count (the footer's parse and one per row
/// group) are pinned from the scan as it was before lanes existed.
#[test]
fn a_real_latency_bound_file_keeps_one_charge_per_row_group() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let file = stage(&cloud, "data", "whole", write(ROWS, ROW_GROUPS));
    assert!(file.size <= latency_limit(&cloud));
    let spec = TableSpec::new("t", schema(), vec![file], ROWS as u64);
    let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
    let cfg = ScanConfig::default();
    let end = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        scan_table(&env, &cfg, &spec.files, &spec.schema, &SCANNED, None, tx).await.unwrap();
        while rx.recv().await.is_some() {}
        sim.now().as_secs_f64()
    });
    assert_eq!(env.tally().gets, 1);
    let charges = env.ctx.instance.cpu.jobs_joined();
    assert_eq!((end.to_bits(), charges), (4576877794617538856, 1 + ROW_GROUPS as u64), "{end}");
}

/// A row group read a GET per chunk whose object is deleted once its
/// first chunk is decoding: a later chunk's GET fails, the scan returns
/// the typed storage error, and once the reads still in flight have run
/// out nothing of it is left running.
#[test]
fn a_landing_that_fails_mid_row_group_is_a_storage_error_that_leaves_nothing_running() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let bytes = write(30_000, 3);
    let file = stage(&cloud, "data", "vanishing", bytes);
    let spec = TableSpec::new("t", schema(), vec![file], 30_000);
    let cfg = ScanConfig { connections: 1, ..per_chunk(16 << 10) };
    let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
    let cpu = &env.ctx.instance.cpu;
    let err = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let scanned = scan_table(&env, &cfg, &spec.files, &spec.schema, &SCANNED, None, tx);
        let vanish = async {
            // The footer's parse, then the first chunk's decode.
            while cpu.jobs_joined() < 2 {
                sim.handle().sleep(Duration::from_micros(50)).await;
            }
            cloud.s3.delete_objects("data", ["vanishing"]);
            std::future::pending::<std::convert::Infallible>().await
        };
        let err = match select2(scanned, vanish).await {
            Either::Left(out) => out.map(|m| m.rows).unwrap_err(),
            Either::Right(never) => match never {},
        };
        while rx.recv().await.is_some() {}
        err
    });
    assert!(matches!(&err, CoreError::Storage(m) if m.contains("vanishing")), "{err}");
    drop(env);
    sim.block_on(sim.handle().sleep(Duration::from_secs(60)));
    common::assert_quiescent(&sim, &cloud, &lambada::core::LambadaConfig::default(), 0);
}

/// The end of [`footer_reads_refill_as_their_gets_land`]'s scan when the
/// prefetch sent a file's footer GET only once the oldest footer read
/// before it had been parsed (measured on that prefetch, same seed).
const PARSE_GATED_END: f64 = 0.22357456;

/// A worker's `2 × connections` latency-bound files: the second round's
/// footer GETs are sent as the first round's land, not once the oldest of
/// them is parsed. With the parse made longer than a GET and a CPU for
/// every footer, the scan ends at least one parse sooner than the
/// parse-gated prefetch did, with the same batches, bit for bit, in file
/// order.
#[test]
fn footer_reads_refill_as_their_gets_land() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cfg = ScanConfig { connections: 2, ..ScanConfig::default() };
    let files: Vec<TableFile> = (0..2 * cfg.connections)
        .map(|i| {
            let bytes = write(ROWS - 1000 * i as i64, ROW_GROUPS - i);
            stage(&cloud, "data", &format!("f{i}"), bytes)
        })
        .collect();
    assert!(files.iter().all(|f| f.size <= latency_limit(&cloud)));
    let spec = TableSpec::new("t", schema(), files, ROWS as u64);
    let costs = ComputeCostModel { metadata_parse_s: 0.1, ..ComputeCostModel::default() };
    // Four vCPUs: every footer of the scan parses at full speed.
    let env = WorkerEnv::bare(&cloud, 0, 4 * 1792, costs);
    let (end, items) = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        scan_table(&env, &cfg, &spec.files, &spec.schema, &SCANNED, None, tx).await.unwrap();
        let mut items = Vec::new();
        while let Some(item) = rx.recv().await {
            items.push(item);
        }
        (sim.now().as_secs_f64(), items)
    });
    assert_eq!(env.tally().gets, spec.files.len() as u64, "one GET per file");
    assert!(end + costs.metadata_parse_s <= PARSE_GATED_END, "{end} s");
    let each: Vec<RecordBatch> = spec
        .files
        .iter()
        .flat_map(|file| {
            let one = std::slice::from_ref(file);
            let (_, _, items) = scan(&sim, &cloud, cfg, &spec, one, &SCANNED, None).unwrap();
            batches(items)
        })
        .collect();
    assert_eq!(batches(items), each, "every file's batches, in file order");
}

/// The ends of [`paper_scale_footer_gets_stay_within_the_connections`]'s
/// scans, by connections, under the parse-gated prefetch (measured).
const PARSE_GATED_SF1000_ENDS: [(usize, f64); 2] = [(2, 22.396852901), (4, 22.555365952)];

/// Eight paper-scale descriptor files on one 1792 MiB worker: however
/// many footer GETs are waiting, at most `connections` are on the wire,
/// so file 0's first chunk GET waits behind no more than that many
/// footers, and the scan is no slower than the parse-gated prefetch — to
/// the microsecond: the two prefetches charge the same CPU and link work
/// in a different order, which moves the clock by float rounding alone.
#[test]
fn paper_scale_footer_gets_stay_within_the_connections() {
    for (connections, parse_gated_end) in PARSE_GATED_SF1000_ENDS {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let spec = stage_descriptors(&cloud, "tpch", "lineitem", &DescriptorOptions::default());
        let (files, q1_columns) = (&spec.files[..8], [4, 5, 6, 7, 8, 9, 10]);
        let env = WorkerEnv::bare(&cloud, 0, 1792, ComputeCostModel::default());
        let cfg = ScanConfig { connections, ..ScanConfig::default() };
        let tail = cfg.metadata_tail_bytes;
        // Every 10 µs until file 0's first chunk GET has its first byte:
        // the tasks alive (a row group's chunk GETs are tasks, footer
        // reads are not) and the GETs billed with their bytes.
        let (end, samples) = sim.block_on(async {
            let (tx, mut rx) = mpsc::channel();
            let scanned = scan_table(&env, &cfg, files, &spec.schema, &q1_columns, None, tx);
            let mut samples = Vec::new();
            let sample = async {
                loop {
                    let tally = env.tally();
                    samples.push((sim.live_tasks(), tally.gets, tally.bytes_read));
                    if tally.bytes_read != tally.gets * tail {
                        std::future::pending::<()>().await;
                    }
                    sim.handle().sleep(Duration::from_micros(10)).await;
                }
            };
            match select2(scanned, sample).await {
                Either::Left(metrics) => assert_eq!(metrics.unwrap().files, 8),
                Either::Right(never) => never,
            }
            while rx.recv().await.is_some() {}
            (sim.now().as_secs_f64(), samples)
        });
        let tasks_before = samples[0].0;
        let issued = samples.iter().position(|s| s.0 > tasks_before).expect("no chunk GET issued");
        let (_, footers_then, _) = samples[issued];
        let (_, gets, _) = *samples.last().expect("no samples");
        let footers_ahead = gets - 1 - footers_then;
        assert!(footers_ahead <= connections as u64, "{footers_ahead} footer GETs ahead");
        assert!(end <= parse_gated_end + 1e-6, "{connections} connections: {end} s");
    }
}
