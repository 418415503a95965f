//! Criterion microbenchmarks of the building blocks that run real work in
//! the reproduction: encodings, the LZ codec, expression kernels, hash
//! aggregation, partitioning, and the virtual-time executor itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lambada_engine::{col, lit_f64, Column, RecordBatch};
use lambada_format::{encoding, ColumnData, Encoding};

/// What one item costs: the best of 15 passes of `f` over `items` values
/// or rows, printed in the table's layout. A best-of, where criterion
/// reports a mean, because per-item costs of a nanosecond or so are
/// compared across commits and a shared box only ever adds time.
fn ns_per_item(name: &str, unit: &str, items: usize, mut f: impl FnMut()) {
    let best = (0..15)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap_or_default();
    println!("  {name:<40} {:>12.2} ns/{unit}", best.as_nanos() as f64 / items as f64);
}

/// The first `files` files of the repo benchmark's `scan_agg` table —
/// LINEITEM SF 0.05 in 8 files of 4 row groups — as encoded files, and the
/// scan stage the planner makes of a query over it.
struct Lineitem {
    files: Vec<(Vec<u8>, lambada_format::FileMeta)>,
    system: lambada_core::Lambada,
}

impl Lineitem {
    fn generate(files: usize) -> Lineitem {
        use lambada_workloads::loader::{generate_file_columns, stage_real, StageOptions};
        let scale = 0.05 / 8.0 * files as f64;
        let opts = StageOptions { scale, num_files: files, row_groups_per_file: 4, seed: 1 };
        let schema = lambada_workloads::lineitem_schema().to_file_schema().unwrap();
        let files = generate_file_columns(opts)
            .into_iter()
            .map(|columns| {
                let rows = columns[0].len();
                let data: Vec<_> = columns.into_iter().map(|c| c.into_data().unwrap()).collect();
                let groups = lambada_format::chunk_rows(&data, rows.div_ceil(4));
                let file = lambada_format::write_file(schema.clone(), &groups, Default::default());
                let file = file.unwrap();
                let meta = lambada_format::read_footer(&file).unwrap();
                (file, meta)
            })
            .collect();
        // Planning reads the table's schema, not its data: a token table.
        let sim = lambada_sim::Simulation::new();
        let cloud = lambada_sim::Cloud::new(&sim, lambada_sim::CloudConfig::default());
        let mut system = lambada_core::Lambada::install(&cloud, Default::default());
        let token = StageOptions { scale: 0.0005, num_files: 1, ..opts };
        system.register_table(stage_real(&cloud, "tpch", "lineitem", token));
        Lineitem { files, system }
    }

    /// The stored bytes of column `name`'s chunk in the first row group.
    fn chunk(&self, name: &str) -> (&[u8], &lambada_format::ColumnChunkMeta) {
        let (file, meta) = &self.files[0];
        let chunk = &meta.row_groups[0].columns[meta.schema.index_of(name).unwrap()];
        (&file[chunk.offset as usize..(chunk.offset + chunk.compressed_len) as usize], chunk)
    }

    /// The scan pipeline of `plan` and the row groups it is pushed: the
    /// scan's columns of every row group its statistics do not prune.
    fn scan(
        &self,
        plan: &lambada_engine::LogicalPlan,
    ) -> (lambada_engine::PipelineSpec, Vec<RecordBatch>) {
        use lambada_engine::expr::range::can_match;
        let dag = self.system.plan(plan).unwrap();
        let Some(lambada_core::StageKind::Scan(scan)) = dag.stages.first() else {
            panic!("a one-table query starts with a scan stage");
        };
        let schema =
            std::sync::Arc::new(lambada_workloads::lineitem_schema().project(&scan.scan_columns));
        let mut batches = Vec::new();
        for (file, meta) in &self.files {
            for (g, rg) in meta.row_groups.iter().enumerate() {
                let stats = |i: usize| rg.columns.get(i).and_then(|c| c.stats);
                if scan.prune_predicate.as_ref().is_some_and(|p| !can_match(p, &stats)) {
                    continue;
                }
                let data = lambada_format::read_row_group(file, meta, g, &scan.scan_columns);
                let columns = data.unwrap().into_iter().map(Column::from_data).collect();
                batches.push(RecordBatch::new(schema.clone(), columns).unwrap());
            }
        }
        (scan.pipeline.clone(), batches)
    }
}

fn bench_encodings(c: &mut Criterion) {
    let sorted: Vec<i64> = (0..65_536).map(|i| 8000 + i / 50).collect();
    let mut g = c.benchmark_group("format/encoding");
    g.throughput(Throughput::Bytes(65_536 * 8));
    let data = ColumnData::I64(sorted);
    for enc in [Encoding::Plain, Encoding::Rle, Encoding::Delta] {
        let bytes = encoding::encode(&data, enc).unwrap();
        g.bench_function(format!("encode/{}", enc.name()), |b| {
            b.iter(|| encoding::encode(black_box(&data), enc).unwrap());
        });
        g.bench_function(format!("decode/{}", enc.name()), |b| {
            b.iter(|| {
                encoding::decode(black_box(&bytes), enc, lambada_format::PhysicalType::I64, 65_536)
                    .unwrap()
            });
        });
    }
    g.finish();
    let plain = encoding::encode(&data, Encoding::Plain).unwrap();
    ns_per_item("decode/plain", "value", data.len(), || {
        let ptype = lambada_format::PhysicalType::I64;
        black_box(encoding::decode(black_box(&plain), Encoding::Plain, ptype, 65_536).unwrap());
    });
}

fn bench_lz(c: &mut Criterion) {
    let mut data = Vec::with_capacity(1 << 20);
    for i in 0..131_072i64 {
        data.extend_from_slice(&(i % 1000).to_le_bytes());
    }
    let compressed = lambada_format::compress::compress(&data);
    let mut g = c.benchmark_group("format/lz");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress", |b| {
        b.iter(|| lambada_format::compress::compress(black_box(&data)));
    });
    g.bench_function("decompress", |b| {
        b.iter(|| {
            lambada_format::compress::decompress(black_box(&compressed), data.len()).unwrap()
        });
    });
    // What the synthetic input above does not have: a real `l_quantity`
    // chunk is 50 distinct doubles in no order, a match token per value.
    let lineitem = Lineitem::generate(1);
    let (stored, chunk) = lineitem.chunk("l_quantity");
    let len = chunk.uncompressed_len as usize;
    g.throughput(Throughput::Bytes(chunk.uncompressed_len));
    g.bench_function("decompress_f64_lowcard", |b| {
        b.iter(|| lambada_format::compress::decompress(black_box(stored), len).unwrap());
    });
    g.finish();
    ns_per_item("decompress_f64_lowcard", "value", chunk.num_values as usize, || {
        black_box(lambada_format::compress::decompress(black_box(stored), len).unwrap());
    });
}

fn q6_like_batch(n: usize) -> RecordBatch {
    RecordBatch::from_columns(
        &["price", "discount"],
        vec![
            Column::F64((0..n).map(|i| (i % 977) as f64).collect()),
            Column::F64((0..n).map(|i| (i % 11) as f64 / 100.0).collect()),
        ],
    )
    .unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    let batch = q6_like_batch(65_536);
    let predicate = col(1).between(lit_f64(0.05), lit_f64(0.07));
    let projection = col(0).mul(col(1));
    let mut g = c.benchmark_group("engine/kernels");
    g.throughput(Throughput::Elements(65_536));
    g.bench_function("predicate_mask", |b| {
        b.iter(|| {
            lambada_engine::expr::eval::evaluate_mask(black_box(&predicate), &batch).unwrap()
        });
    });
    g.bench_function("arith_projection", |b| {
        b.iter(|| lambada_engine::expr::eval::evaluate(black_box(&projection), &batch).unwrap());
    });
    // Masks no branch predictor learns, at Q6's, an even and Q1's density.
    for percent in [2u64, 50, 98] {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mask: Vec<bool> = (0..batch.num_rows())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % 100 < percent
            })
            .collect();
        g.bench_function(format!("filter_{percent}pct"), |b| {
            b.iter(|| batch.filter(black_box(&mask)).unwrap());
        });
    }
    g.finish();
}

/// `Pipeline::push` over real row groups: the scan stages of Q1 (7
/// columns, 98% of rows kept, 8 aggregates over 4 groups) and Q6 (4
/// columns, 2% kept, one global sum).
fn bench_pipeline(_: &mut Criterion) {
    use lambada_engine::Pipeline;
    println!("\nbenchmark group: engine/pipeline");
    let lineitem = Lineitem::generate(8);
    for (name, plan) in [
        ("q1_push", lambada_workloads::q1("lineitem")),
        ("q6_push", lambada_workloads::q6("lineitem")),
    ] {
        let (spec, batches) = lineitem.scan(&plan);
        let rows = batches.iter().map(RecordBatch::num_rows).sum();
        ns_per_item(name, "row", rows, || {
            let mut pipeline = Pipeline::new(spec.clone()).unwrap();
            for batch in &batches {
                pipeline.push(black_box(batch)).unwrap();
            }
            black_box(pipeline.finish().unwrap());
        });
    }
}

fn bench_hash_agg(c: &mut Criterion) {
    use lambada_engine::agg::{AggFunc, GroupedAggState};
    use lambada_engine::DataType;
    const ROWS: usize = 65_536;
    let f = Some(DataType::Float64);
    let floats = Column::F64((0..ROWS).map(|i| i as f64).collect());
    let mut g = c.benchmark_group("engine/hash_agg");
    g.throughput(Throughput::Elements(ROWS as u64));

    let groups = Column::I64((0..ROWS as i64).map(|i| i % 8).collect());
    g.bench_function("update_batch_8_groups", |b| {
        b.iter(|| {
            let mut st = GroupedAggState::new(&[(AggFunc::Sum, f)]).unwrap();
            st.update_batch(
                black_box(std::slice::from_ref(&groups)),
                &[Some(floats.clone())],
                ROWS,
            )
            .unwrap();
            st
        });
    });

    // TPC-H Q1: two keys, 6 groups of skewed sizes, 4 SUMs, 3 AVGs and
    // a COUNT(*).
    let q1_keys = [
        Column::I64((0..ROWS).map(|i| [0, 1, 1, 2, 1, 2, 0, 1][i % 8]).collect()),
        Column::I64((0..ROWS).map(|i| i64::from(i % 3 == 0 && i % 8 != 1)).collect()),
    ];
    let q1_funcs = [
        (AggFunc::Sum, f),
        (AggFunc::Sum, f),
        (AggFunc::Sum, f),
        (AggFunc::Sum, f),
        (AggFunc::Avg, f),
        (AggFunc::Avg, f),
        (AggFunc::Avg, f),
        (AggFunc::Count, None),
    ];
    let mut q1_args = vec![Some(floats.clone()); 7];
    q1_args.push(None);
    g.bench_function("update_batch_q1_2_keys_8_aggs_6_groups", |b| {
        b.iter(|| {
            let mut st = GroupedAggState::new(&q1_funcs).unwrap();
            st.update_batch(black_box(&q1_keys), &q1_args, ROWS).unwrap();
            st
        });
    });

    // TPC-H Q3 at SF 0.02: 2.6e4 groups, one key.
    const MANY: i64 = 26_000;
    let spread = Column::I64((0..ROWS as i64).map(|i| i * 7919 % MANY).collect());
    let q3_funcs = [(AggFunc::Sum, f), (AggFunc::Count, None)];
    let many_groups = |keys: &Column| {
        let mut st = GroupedAggState::new(&q3_funcs).unwrap();
        st.update_batch(std::slice::from_ref(keys), &[Some(floats.clone()), None], ROWS).unwrap();
        st
    };
    g.bench_function("update_batch_26k_groups", |b| b.iter(|| many_groups(black_box(&spread))));

    g.throughput(Throughput::Elements(MANY as u64));
    let base = many_groups(&spread);
    let peer = many_groups(&Column::I64((0..ROWS as i64).map(|i| i * 104_729 % MANY).collect()));
    g.bench_function("merge_26k_groups", |b| {
        b.iter(|| {
            let mut st = base.clone();
            st.merge(black_box(&peer)).unwrap();
            st
        });
    });
    let wire = base.encode();
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_26k_groups", |b| b.iter(|| black_box(&base).encode()));
    g.bench_function("decode_26k_groups", |b| {
        b.iter(|| GroupedAggState::decode(black_box(&wire)).unwrap());
    });
    g.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    use lambada_engine::{JoinState, JoinVariant};
    const BUILD: i64 = 100_000;
    // Orders-like build side (unique keys), lineitem-like probe side
    // (four rows a key, a quarter of them without a partner).
    let build = RecordBatch::from_columns(
        &["k", "v"],
        vec![
            Column::I64((0..BUILD).map(|i| i * 7919 % BUILD).collect()),
            Column::F64((0..BUILD).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let probe = RecordBatch::from_columns(
        &["k"],
        vec![Column::I64((0..65_536).map(|i| i * 31 % (BUILD + BUILD / 3)).collect())],
    )
    .unwrap();
    let build_side =
        || JoinState::build(build.schema().clone(), vec![0], std::slice::from_ref(&build)).unwrap();
    let mut g = c.benchmark_group("engine/hash_join");
    g.throughput(Throughput::Elements(BUILD as u64));
    g.bench_function("build_100k_rows", |b| b.iter(|| black_box(build_side())));
    let state = build_side();
    g.throughput(Throughput::Elements(probe.num_rows() as u64));
    g.bench_function("probe_inner_64k_rows", |b| {
        b.iter(|| state.probe_variant(black_box(&probe), &[0], JoinVariant::Inner).unwrap());
    });
    g.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let batch = RecordBatch::from_columns(
        &["k", "v"],
        vec![
            Column::I64((0..65_536).collect()),
            Column::F64((0..65_536).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let mut g = c.benchmark_group("core/partition");
    g.throughput(Throughput::Elements(65_536));
    g.bench_function("hash_partition_64", |b| {
        b.iter(|| lambada_core::partition::partition_batch(black_box(&batch), &[0], 64).unwrap());
    });
    g.finish();
}

fn bench_bundle(c: &mut Criterion) {
    use lambada_core::{decode_bundle, encode_bundle_into, PartData};
    use lambada_sim::services::object_store::Body;
    let parts: Vec<(u32, PartData)> =
        (0..64u32).map(|dest| (dest, PartData::Real(vec![dest as u8; 16 * 1024]))).collect();
    let total: u64 = parts.iter().map(|(_, d)| d.len()).sum();
    let mut g = c.benchmark_group("core/exchange");
    g.throughput(Throughput::Bytes(total));
    g.bench_function("encode_bundle_64x16KiB", |b| {
        // One scratch buffer reused across iterations — the same
        // write-combined hot path the exchange runs once per round.
        let mut scratch: Vec<u8> = Vec::new();
        b.iter(|| {
            scratch.clear();
            encode_bundle_into(black_box(&mut scratch), &parts).unwrap()
        });
    });
    let mut encoded: Vec<u8> = Vec::new();
    encode_bundle_into(&mut encoded, &parts).unwrap();
    g.bench_function("decode_bundle_64x16KiB", |b| {
        b.iter(|| decode_bundle(Body::from_vec(black_box(encoded.clone())), Vec::new()).unwrap());
    });
    g.finish();
}

/// One `sim/executor` case: the usual ns/iter line, then what an iteration
/// costs per executor poll and how many polls one job takes — the two
/// numbers a change to the simulator moves.
fn executor_case(
    g: &mut criterion::BenchmarkGroup,
    name: &str,
    jobs: u64,
    run: impl Fn(&lambada_sim::Simulation),
) {
    use lambada_sim::Simulation;
    g.bench_function(name, |b| b.iter(|| run(&Simulation::new())));
    const REPS: u32 = 20;
    let start = std::time::Instant::now();
    let mut polls = 0;
    for _ in 0..REPS {
        let sim = Simulation::new();
        run(&sim);
        polls = sim.steps();
    }
    let ns_per_run = start.elapsed().as_nanos() as f64 / f64::from(REPS);
    println!(
        "  {:<40} {:>12.0} ns/poll, {:.2} polls/job",
        "",
        ns_per_run / polls as f64,
        polls as f64 / jobs as f64
    );
}

fn bench_executor(c: &mut Criterion) {
    use lambada_sim::sync::{select2, Semaphore};
    use lambada_sim::{secs, BurstLink, BurstLinkConfig, PsResource, SimHandle};
    /// Spawn `n` tasks and await them all.
    async fn fan_out<F: std::future::Future<Output = ()> + 'static>(
        h: SimHandle,
        n: u64,
        task: impl Fn(u64) -> F,
    ) {
        let joins: Vec<_> = (0..n).map(|i| h.spawn(task(i))).collect();
        for j in joins {
            j.await;
        }
    }
    let mut g = c.benchmark_group("sim/executor");
    executor_case(&mut g, "spawn_1k_sleepers", 1000, |sim| {
        let h = sim.handle();
        sim.block_on(fan_out(h.clone(), 1000, |i| {
            let h = h.clone();
            async move { h.sleep(secs(i as f64 * 0.001)).await }
        }));
    });
    // A worker's NIC during a scan: 64 ranged GETs under 16 connections.
    executor_case(&mut g, "link_fan_in", 64, |sim| {
        let h = sim.handle();
        let link = BurstLink::new(h.clone(), BurstLinkConfig::flat(90e6));
        let conn = Semaphore::new(16);
        sim.block_on(fan_out(h, 64, |i| {
            let (link, conn) = (link.clone(), conn.clone());
            async move {
                let _permit = conn.acquire(1).await;
                link.transfer(1e6 + i as f64 * 1e4).await;
            }
        }));
    });
    executor_case(&mut g, "cpu_share", 8, |sim| {
        let h = sim.handle();
        let cpu = PsResource::new(h.clone(), 2.0, 1.0);
        sim.block_on(fan_out(h, 8, |i| {
            let cpu = cpu.clone();
            async move { cpu.run(0.1 * (i + 1) as f64).await }
        }));
    });
    // The FaaS layer's handler-versus-timeout race: the loser is a 900 s
    // timer that must not outlive the select.
    executor_case(&mut g, "select_sleep_loser", 1000, |sim| {
        let h = sim.handle();
        sim.block_on(async move {
            for _ in 0..1000 {
                select2(h.sleep(secs(0.001)), h.sleep(secs(900.0))).await;
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_encodings,
    bench_lz,
    bench_kernels,
    bench_pipeline,
    bench_hash_agg,
    bench_hash_join,
    bench_partitioning,
    bench_bundle,
    bench_executor
);
criterion_main!(benches);
