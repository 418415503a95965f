//! The scan's request plan against drawn file layouts: 1–8 row groups,
//! projections, pruning predicates, files on both sides of the
//! latency-bound limit and the footer read's edge inside, at and across
//! row groups. Whatever the plan, the batches are those of the plan that
//! reuses nothing (a GET per chunk after a footer read of the trailer
//! alone), and the GETs are the closed form: one for a file under the
//! limit, else the footer read, its retry where there is one, and one per
//! surviving row group the footer's body does not hold.

use proptest::prelude::*;

use lambada::core::{
    scan_table, ComputeCostModel, ScanConfig, ScanItem, ScanMetrics, TableFile, WorkerEnv,
};
use lambada::engine::{col, lit_i64, Column, DataType, Expr, Field, RecordBatch, Schema};
use lambada::format::{chunk_rows, write_file, FileMeta, WriterOptions, TRAILER_LEN};
use lambada::sim::services::object_store::Body;
use lambada::sim::sync::mpsc;
use lambada::sim::{Cloud, CloudConfig, Simulation, Tally};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("pad", DataType::Float64),
        Field::new("v", DataType::Int64),
        Field::new("x", DataType::Float64),
    ])
}

/// `k` ascends, so a bound on it prunes whole row groups.
fn columns(rows: i64, salt: i64) -> Vec<Column> {
    vec![
        Column::I64((0..rows).collect()),
        Column::F64((0..rows).map(|i| (i + salt) as f64 * 0.5).collect()),
        Column::I64((0..rows).map(|i| (i * 7919 + salt) % 1013).collect()),
        Column::F64((0..rows).map(|i| ((i * 31 + salt) % 97) as f64 / 7.0).collect()),
    ]
}

/// A drawn file and how it is scanned.
#[derive(Debug)]
struct Case {
    row_groups: usize,
    rows_per_group: i64,
    salt: i64,
    /// Bit `c` selects column `c` (never 0).
    projection: usize,
    /// 0: none; 1: `k >= bound`; 2: `k < bound`; 3: `k` in
    /// `[bound, bound + rows_per_group]`, where `bound` is the draw modulo
    /// the row count.
    predicate: (u8, u64),
    /// Where the request limit falls: 0 at or above the file size, else
    /// between the widest scanned span and the file size.
    limit: (u8, u64),
    /// Where the footer read's edge falls: 0 the trailer alone, 1 a
    /// row group's first scanned byte ± 1, 2 any byte.
    tail: (u8, usize, i64, u64),
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (1usize..9, 20i64..400, 0i64..1000),
        1usize..16,
        (0u8..4, any::<u64>()),
        (0u8..2, any::<u64>()),
        (0u8..3, 0usize..8, -1i64..2, any::<u64>()),
    )
        .prop_map(
            |((row_groups, rows_per_group, salt), projection, predicate, limit, tail)| Case {
                row_groups,
                rows_per_group,
                salt,
                projection,
                predicate,
                limit,
                tail,
            },
        )
}

fn predicate(case: &Case) -> Option<Expr> {
    let (kind, draw) = case.predicate;
    let bound = (draw % (case.rows_per_group as u64 * case.row_groups as u64)) as i64;
    match kind {
        1 => Some(col(0).ge(lit_i64(bound))),
        2 => Some(col(0).lt(lit_i64(bound))),
        3 => Some(col(0).between(lit_i64(bound), lit_i64(bound + case.rows_per_group))),
        _ => None,
    }
}

/// First and one past the last scanned byte of every row group.
fn spans(meta: &FileMeta, columns: &[usize]) -> Vec<(u64, u64)> {
    let span = |rg: &lambada::format::RowGroupMeta| {
        let chunks = columns.iter().map(|&c| &rg.columns[c]);
        let start = chunks.clone().map(|c| c.offset).min().unwrap_or(0);
        (start, chunks.map(|c| c.offset + c.compressed_len).max().unwrap_or(0))
    };
    meta.row_groups.iter().map(span).collect()
}

/// Scan `bytes`, staged as one file, to its end on a fresh cloud; what
/// the worker's client requested comes beside the scan's metrics.
fn scan(
    cfg: ScanConfig,
    bytes: &[u8],
    columns: &[usize],
    predicate: Option<&Expr>,
) -> (ScanMetrics, Tally, Vec<RecordBatch>) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    cloud.s3.create_bucket("data");
    cloud.s3.stage("data", "f", Body::from_vec(bytes.to_vec()));
    let file = TableFile::real("data", "f", bytes.len() as u64);
    let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
    let (metrics, items) = sim.block_on(async {
        let (tx, mut rx) = mpsc::channel();
        let files = std::slice::from_ref(&file);
        let metrics =
            scan_table(&env, &cfg, files, &schema(), columns, predicate, tx).await.unwrap();
        let mut items = Vec::new();
        while let Some(item) = rx.recv().await {
            items.push(item);
        }
        (metrics, items)
    });
    let batches = items
        .into_iter()
        .map(|item| match item {
            ScanItem::Batch(batch) => batch,
            ScanItem::Modeled { .. } => panic!("a real file scans into batches"),
        })
        .collect();
    (metrics, env.tally(), batches)
}

/// The reference plan: a request limit below every chunk and a footer
/// read of the trailer alone, whose retry's body holds no row group.
fn reference() -> ScanConfig {
    ScanConfig {
        max_request_bytes: 128,
        metadata_tail_bytes: TRAILER_LEN as u64,
        ..ScanConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_plan_scans_the_same_batches_with_the_closed_form_of_gets(case in arb_case()) {
        let rows = case.rows_per_group * case.row_groups as i64;
        let data: Vec<_> =
            columns(rows, case.salt).into_iter().map(|c| c.into_data().unwrap()).collect();
        let groups = chunk_rows(&data, case.rows_per_group as usize);
        let bytes = write_file(schema().to_file_schema().unwrap(), &groups, WriterOptions::default())
            .unwrap();
        let meta = FileMeta::parse_tail(&bytes).unwrap();
        let size = bytes.len() as u64;
        let footer_len = meta.encode_footer().len() as u64;
        let projection: Vec<usize> = (0..4).filter(|c| case.projection & (1 << c) != 0).collect();
        let spans = spans(&meta, &projection);
        let widest = spans.iter().map(|(start, end)| end - start).max().unwrap_or(0);

        // The limit on either side of the file size: every row group
        // stays latency-bound, so one outside the footer's body is one GET.
        let (side, draw) = case.limit;
        let max_request_bytes =
            if side == 0 { size + draw % size } else { widest + draw % (size - widest) };
        let (kind, group, nudge, draw) = case.tail;
        let edge = match kind {
            0 => size - TRAILER_LEN as u64,
            1 => spans[group % spans.len()].0.saturating_add_signed(nudge),
            _ => draw % (size - TRAILER_LEN as u64),
        };
        let cfg = ScanConfig {
            max_request_bytes,
            metadata_tail_bytes: size - edge,
            ..ScanConfig::default()
        };

        let pred = predicate(&case);
        let (got, got_tally, got_batches) = scan(cfg, &bytes, &projection, pred.as_ref());
        let (reference, reference_tally, reference_batches) =
            scan(reference(), &bytes, &projection, pred.as_ref());
        prop_assert_eq!(&got_batches, &reference_batches, "{:?}", case);
        prop_assert_eq!(got.rows, reference.rows);
        prop_assert_eq!(
            (got.row_groups_total, got.row_groups_pruned),
            (reference.row_groups_total, reference.row_groups_pruned)
        );

        // The closed form, from the pruning the scan reported: the pruned
        // row groups are the ones `can_match` rejects, and the surviving
        // ones are those the batches came from.
        let surviving: Vec<(u64, u64)> = spans
            .iter()
            .zip(&meta.row_groups)
            .filter(|(_, rg)| {
                let stats = |i: usize| rg.columns.get(i).and_then(|c| c.stats);
                pred.as_ref().is_none_or(|p| lambada::engine::expr::range::can_match(p, &stats))
            })
            .map(|(span, _)| *span)
            .collect();
        prop_assert_eq!(got.row_groups_pruned, (meta.row_groups.len() - surviving.len()) as u64);
        let (want_gets, want_bytes) = if size <= max_request_bytes {
            (1, size)
        } else {
            let tail = size - edge;
            let (reads, body) =
                if tail >= footer_len { (1, tail) } else { (2, tail + footer_len) };
            let body_offset = size - if reads == 1 { tail } else { footer_len };
            let outside: Vec<&(u64, u64)> =
                surviving.iter().filter(|(start, _)| *start < body_offset).collect();
            let over: u64 = outside.iter().map(|(start, end)| end - start).sum();
            (reads + outside.len() as u64, body + over)
        };
        prop_assert_eq!(got_tally.gets, want_gets, "{:?}", case);
        prop_assert_eq!(got_tally.bytes_read, want_bytes, "{:?}", case);
        // The reference reused nothing: every surviving row group took at
        // least one request of its own.
        prop_assert!(reference_tally.gets >= 2 + surviving.len() as u64);
    }
}
