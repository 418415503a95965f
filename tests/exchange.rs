//! Exchange operator correctness: every part reaches exactly its
//! destination for every algorithm variant, and the observed request
//! counts match the closed-form cost models of Table 2.

use std::rc::Rc;

use lambada::core::exchange::RoundTiming;
use lambada::core::{
    run_exchange, ComputeCostModel, ExchangeAlgo, ExchangeConfig, ExchangeSide, PartData, WorkerEnv,
};
use lambada::sim::services::faas::{Instance, InstanceCtx};
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation};

/// Spin up `total` bare worker environments (no FaaS dispatch — these
/// tests isolate the exchange itself).
fn worker_envs(cloud: &Cloud, total: usize, memory_mib: u32) -> Vec<WorkerEnv> {
    (0..total)
        .map(|i| {
            let link = cloud.config.nic.link_config(memory_mib);
            let instance = Rc::new(Instance::new(cloud.handle.clone(), i as u64, memory_mib, link));
            let ctx = InstanceCtx::bare(cloud.handle.clone(), instance);
            WorkerEnv::new(cloud, ctx, i as u64, ComputeCostModel::default())
        })
        .collect()
}

/// Run a full exchange where worker `p` holds one real payload
/// `"{p}->{d}"` for every destination `d`; verify delivery. Returns the
/// cloud (for its request counters) and every worker's round timings.
fn run_real_exchange(total: usize, cfg: ExchangeConfig) -> (Cloud, Vec<Vec<RoundTiming>>) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    cfg.buckets.install(&cloud);
    let envs = worker_envs(&cloud, total, 2048);
    let side = ExchangeSide::new();
    let outcomes = sim.block_on({
        let cloud2 = cloud.clone();
        async move {
            let mut joins = Vec::new();
            for (p, env) in envs.into_iter().enumerate() {
                let cfg = cfg.clone();
                let side = side.clone();
                joins.push(cloud2.handle.spawn(async move {
                    let parts: Vec<PartData> = (0..total)
                        .map(|d| PartData::Real(format!("{p}->{d}").into_bytes()))
                        .collect();
                    run_exchange(&env, &cfg, p, total, parts, &side).await.unwrap()
                }));
            }
            let mut out = Vec::new();
            for j in joins {
                out.push(j.await);
            }
            out
        }
    });
    // Every worker must have received exactly one part from every sender,
    // all destined to itself.
    for (p, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.received.len(), total, "worker {p} received wrong count");
        let mut senders: Vec<usize> = Vec::new();
        for (dest, data) in &outcome.received {
            assert_eq!(*dest as usize, p, "worker {p} got a part for {dest}");
            let PartData::Real(bytes) = data else { panic!("real exchange") };
            let text = String::from_utf8(bytes.clone()).unwrap();
            let (from, to) = text.split_once("->").unwrap();
            assert_eq!(to.parse::<usize>().unwrap(), p);
            senders.push(from.parse().unwrap());
        }
        senders.sort_unstable();
        assert_eq!(senders, (0..total).collect::<Vec<_>>(), "worker {p} senders");
    }
    (cloud, outcomes.into_iter().map(|o| o.rounds).collect())
}

/// Same seed, two runs: every worker's round timings and the request
/// counters repeat exactly, for every algorithm with and without write
/// combining. (PUT spawn order and sender-group poll order used to follow
/// `HashMap` iteration, so `1l`/`2l`/`3l` spans and LIST counts drifted
/// between runs.)
#[test]
fn same_seed_runs_repeat_exactly() {
    let cases = [
        (ExchangeAlgo::OneLevel, 16),
        (ExchangeAlgo::TwoLevel, 16),
        (ExchangeAlgo::ThreeLevel, 27),
    ];
    for (algo, total) in cases {
        for wc in [false, true] {
            let run = || {
                let cfg = ExchangeConfig { algo, write_combining: wc, ..ExchangeConfig::default() };
                let (cloud, rounds) = run_real_exchange(total, cfg);
                let requests = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List]
                    .map(|item| cloud.billing.units(item));
                (rounds, requests)
            };
            assert_eq!(run(), run(), "{} P={total}", algo.label(wc));
        }
    }
}

#[test]
fn one_level_delivers_everything() {
    let cfg = ExchangeConfig {
        algo: ExchangeAlgo::OneLevel,
        write_combining: false,
        ..ExchangeConfig::default()
    };
    run_real_exchange(9, cfg);
}

#[test]
fn one_level_write_combining_delivers() {
    let cfg = ExchangeConfig {
        algo: ExchangeAlgo::OneLevel,
        write_combining: true,
        ..ExchangeConfig::default()
    };
    run_real_exchange(9, cfg);
}

#[test]
fn two_level_delivers_perfect_square() {
    let cfg = ExchangeConfig {
        algo: ExchangeAlgo::TwoLevel,
        write_combining: false,
        ..ExchangeConfig::default()
    };
    run_real_exchange(16, cfg);
}

#[test]
fn two_level_delivers_ragged_sizes() {
    for total in [5usize, 11, 13] {
        let cfg = ExchangeConfig {
            algo: ExchangeAlgo::TwoLevel,
            write_combining: true,
            run_id: total as u64,
            ..ExchangeConfig::default()
        };
        run_real_exchange(total, cfg);
    }
}

#[test]
fn three_level_delivers_perfect_cube() {
    for (total, wc) in [(8, false), (8, true), (64, true)] {
        let cfg = ExchangeConfig {
            algo: ExchangeAlgo::ThreeLevel,
            write_combining: wc,
            run_id: u64::from(wc),
            ..ExchangeConfig::default()
        };
        run_real_exchange(total, cfg);
    }
}

/// Observed S3 request counts must match Table 2's closed forms.
#[test]
fn request_counts_match_table2() {
    // (algo, wc, P, expected reads, expected writes)
    let cases = [
        (ExchangeAlgo::OneLevel, false, 9usize, 81.0, 81.0),
        (ExchangeAlgo::OneLevel, true, 9, 81.0, 9.0),
        (ExchangeAlgo::TwoLevel, false, 16, 128.0, 128.0),
        (ExchangeAlgo::TwoLevel, true, 16, 128.0, 32.0),
        (ExchangeAlgo::ThreeLevel, false, 8, 48.0, 48.0),
        (ExchangeAlgo::ThreeLevel, true, 8, 48.0, 24.0),
    ];
    for (algo, wc, total, reads, writes) in cases {
        let cfg = ExchangeConfig {
            algo,
            write_combining: wc,
            run_id: total as u64 * 10 + u64::from(wc),
            ..ExchangeConfig::default()
        };
        let (cloud, _) = run_real_exchange(total, cfg);
        let label = algo.label(wc);
        // The protocol's requests: billed less the duplicates of late ones.
        let hedges = cloud.s3.hedges();
        let got_reads = cloud.billing.units(CostItem::S3Get) - hedges.gets as f64;
        let got_writes = cloud.billing.units(CostItem::S3Put) - hedges.puts as f64;
        assert_eq!(got_reads, reads, "{label} P={total} reads");
        assert_eq!(got_writes, writes, "{label} P={total} writes");
        // LISTs are O(P): a handful of polls per worker per round.
        let lists = cloud.billing.units(CostItem::S3List);
        let k = f64::from(algo.levels());
        assert!(
            lists >= k * total as f64 && lists <= 8.0 * k * total as f64,
            "{label} P={total} lists = {lists}"
        );
    }
}

/// Modeled (synthetic) payloads must produce identical request counts and
/// deliver the right sizes.
#[test]
fn modeled_exchange_matches_real_request_counts() {
    let total = 16usize;
    let make_cfg = |run_id| ExchangeConfig {
        algo: ExchangeAlgo::TwoLevel,
        write_combining: true,
        run_id,
        ..ExchangeConfig::default()
    };
    let (real_cloud, _) = run_real_exchange(total, make_cfg(1));

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cfg = make_cfg(2);
    cfg.buckets.install(&cloud);
    let envs = worker_envs(&cloud, total, 2048);
    let side = ExchangeSide::new();
    let outcomes = sim.block_on({
        let cloud2 = cloud.clone();
        async move {
            let mut joins = Vec::new();
            for (p, env) in envs.into_iter().enumerate() {
                let cfg = cfg.clone();
                let side = side.clone();
                joins.push(cloud2.handle.spawn(async move {
                    let parts: Vec<PartData> =
                        (0..total).map(|_| PartData::Modeled(1 << 20)).collect();
                    run_exchange(&env, &cfg, p, total, parts, &side).await.unwrap()
                }));
            }
            let mut out = Vec::new();
            for j in joins {
                out.push(j.await);
            }
            out
        }
    });
    assert_eq!(
        cloud.billing.units(CostItem::S3Put),
        real_cloud.billing.units(CostItem::S3Put),
        "modeled and real runs issue identical writes"
    );
    for (p, o) in outcomes.iter().enumerate() {
        assert_eq!(o.received.len(), total);
        let bytes: u64 = o.received.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(bytes, (total as u64) << 20, "worker {p} received sizes");
    }
}

/// A malformed exchange — one among no workers, a worker outside it, a
/// part list that is not one part per worker, or a three-level one whose
/// fleet is not a perfect cube (60 workers, where 64 deliver) — is a typed
/// error before any request, not a panic.
#[test]
fn a_malformed_exchange_is_an_error_before_any_request() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cfg = ExchangeConfig::default();
    cfg.buckets.install(&cloud);
    let env = worker_envs(&cloud, 1, 2048).remove(0);
    let side = ExchangeSide::new();
    let parts = |n: usize| (0..n).map(|_| PartData::Modeled(1 << 20)).collect::<Vec<_>>();
    let (one, three) = (ExchangeAlgo::OneLevel, ExchangeAlgo::ThreeLevel);
    let cases = [
        (one, 0, 0, 0),
        (one, 3, 2, 2),
        (one, 0, 2, 3),
        (one, 1, 2, 1),
        (three, 0, 60, 60),
        (three, 59, 60, 60),
    ];
    for (algo, p, total, held) in cases {
        let cfg = ExchangeConfig { algo, ..cfg.clone() };
        let got = sim.block_on(run_exchange(&env, &cfg, p, total, parts(held), &side));
        let err = got.err().map(|e| e.to_string()).unwrap_or_default();
        assert!(err.contains("-worker exchange"), "worker {p} of {total} holding {held}: {err:?}");
    }
    let requests = [CostItem::S3Put, CostItem::S3Get, CostItem::S3List];
    assert!(requests.iter().all(|&item| cloud.billing.units(item) == 0.0));
}

/// Run an exchange where worker `p` holds payload `"{p}->{d}"` for every
/// destination `d`, with `duplicates[p]` additional backup attempts of
/// worker `p` running the same exchange concurrently (each delayed by
/// `delay_ms[p]` virtual milliseconds, so attempts interleave every
/// which way). Returns each *original* worker's received parts, sorted.
fn run_exchange_with_duplicates(
    total: usize,
    cfg: ExchangeConfig,
    duplicates: &[u32],
    delay_ms: &[u64],
) -> Vec<Vec<(u32, Vec<u8>)>> {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    cfg.buckets.install(&cloud);
    let side = ExchangeSide::new();
    let spawn_worker = |p: usize, attempt: u32, delay: u64| {
        let mut env = worker_envs(&cloud, total, 2048).swap_remove(p);
        env.worker_id = p as u64;
        env.attempt = attempt;
        let cfg = cfg.clone();
        let side = side.clone();
        cloud.handle.spawn(async move {
            env.cloud.handle.sleep(std::time::Duration::from_millis(delay)).await;
            let parts: Vec<PartData> =
                (0..total).map(|d| PartData::Real(format!("{p}->{d}").into_bytes())).collect();
            run_exchange(&env, &cfg, p, total, parts, &side).await.unwrap()
        })
    };
    let originals: Vec<_> = (0..total).map(|p| spawn_worker(p, 0, 0)).collect();
    let mut backups = Vec::new();
    for (p, &extra) in duplicates.iter().enumerate().take(total) {
        for attempt in 1..=extra {
            backups.push(spawn_worker(p, attempt, delay_ms.get(p).copied().unwrap_or(0)));
        }
    }
    let outcomes = sim.block_on({
        let handle = cloud.handle.clone();
        async move {
            let outcomes = lambada::sim::sync::join_all(originals).await;
            // Drain the backups too: they must complete without error.
            let _ = lambada::sim::sync::join_all(backups).await;
            let _ = handle;
            outcomes
        }
    });
    outcomes
        .into_iter()
        .map(|o| {
            let mut received: Vec<(u32, Vec<u8>)> = o
                .received
                .into_iter()
                .map(|(d, data)| match data {
                    PartData::Real(b) => (d, b),
                    PartData::Modeled(_) => panic!("real exchange"),
                })
                .collect();
            received.sort();
            received
        })
        .collect()
}

mod duplicate_tolerance {
    use super::*;
    use proptest::prelude::*;

    fn arb_algo_wc() -> impl Strategy<Value = (ExchangeAlgo, bool)> {
        prop_oneof![
            Just((ExchangeAlgo::OneLevel, false)),
            Just((ExchangeAlgo::OneLevel, true)),
            Just((ExchangeAlgo::TwoLevel, false)),
            Just((ExchangeAlgo::TwoLevel, true)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Duplicate sender files — any number of backup attempts per
        /// worker, starting at any offset, under every algorithm and
        /// write-combining variant — must decode to results bit-identical
        /// to the single-attempt run: the highest-attempt-wins dedup never
        /// mixes attempts, double-counts a sender, or lets one sender's
        /// duplicates satisfy the wait for another.
        #[test]
        fn duplicate_sender_files_decode_identically(
            total in 4usize..9,
            algo_wc in arb_algo_wc(),
            duplicates in prop::collection::vec(0u32..3, 9..10),
            delay_ms in prop::collection::vec(0u64..2_000, 9..10),
        ) {
            let (algo, wc) = algo_wc;
            let cfg = ExchangeConfig {
                algo,
                write_combining: wc,
                run_id: 7,
                ..ExchangeConfig::default()
            };
            let reference =
                run_exchange_with_duplicates(total, cfg.clone(), &vec![0; total], &[]);
            let with_dups =
                run_exchange_with_duplicates(total, cfg, &duplicates[..total], &delay_ms);
            prop_assert_eq!(reference, with_dups);
        }
    }
}

/// Exchange-edge keys are namespaced per installation *and* per query:
/// two concurrent installs of the same query shape on one cloud — same
/// table name, same stage indices, same fleet sizes — must never read
/// each other's shuffle files. A collision would either mix the two
/// tables' groups or trip the sender-count discovery, so disjoint,
/// correct results prove isolation.
#[test]
fn concurrent_installs_never_collide_on_exchange_keys() {
    use lambada::core::{AggStrategy, Lambada, LambadaConfig};
    use lambada::engine::{AggExpr, AggFunc, DataType, Field, Schema};
    use lambada::workloads::stage_table_real;

    let schema =
        || Schema::new(vec![Field::new("g", DataType::Int64), Field::new("v", DataType::Int64)]);
    // Enough groups per sender that its shards are too big to ride
    // inline: every sender writes an exchange file.
    const GROUPS: i64 = 30_000;
    let table = |offset: i64| -> Vec<lambada::engine::Column> {
        vec![
            lambada::engine::Column::I64((0..GROUPS).map(|i| offset + i).collect()),
            lambada::engine::Column::I64((0..GROUPS).collect()),
        ]
    };
    let per_file = GROUPS as usize / 3;
    let split = |cols: &[lambada::engine::Column]| -> Vec<Vec<lambada::engine::Column>> {
        (0..3)
            .map(|f| {
                let idx: Vec<usize> = (f * per_file..(f + 1) * per_file).collect();
                cols.iter().map(|c| c.gather(&idx)).collect()
            })
            .collect()
    };
    let plan = |sys: &Lambada| {
        let df = sys.from_table("t").unwrap();
        let g = df.col("g").unwrap();
        df.aggregate(vec![(g, "g")], vec![AggExpr::new(AggFunc::Count, None, "cnt")])
            .unwrap()
            .build()
    };

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    // Identical query shape, disjoint key domains: install A groups keys
    // 0..GROUPS, install B keys 1_000_000.. as many.
    let config = || LambadaConfig {
        files_per_worker: Some(1),
        agg: AggStrategy::Exchange { workers: Some(3) },
        ..LambadaConfig::default()
    };
    let mut sys_a = Lambada::install(&cloud, config());
    sys_a.register_table(stage_table_real(
        &cloud,
        "data-a",
        "t",
        schema(),
        split(&table(0)),
        GROUPS as u64,
        2,
    ));
    let mut sys_b = Lambada::install(&cloud, config());
    sys_b.register_table(stage_table_real(
        &cloud,
        "data-b",
        "t",
        schema(),
        split(&table(1_000_000)),
        GROUPS as u64,
        2,
    ));
    let plan_a = plan(&sys_a);
    let plan_b = plan(&sys_b);

    let (a, b) = sim.block_on({
        let cloud2 = cloud.clone();
        async move {
            let ha = cloud2.handle.spawn(async move { sys_a.run_query(&plan_a).await.unwrap() });
            let hb = cloud2.handle.spawn(async move { sys_b.run_query(&plan_b).await.unwrap() });
            (ha.await, hb.await)
        }
    });
    assert_eq!(a.batch.num_rows(), GROUPS as usize, "install A sees exactly its own groups");
    assert_eq!(b.batch.num_rows(), GROUPS as usize, "install B sees exactly its own groups");
    let keys_of = |batch: &lambada::engine::RecordBatch| -> Vec<i64> {
        let mut k: Vec<i64> =
            (0..batch.num_rows()).map(|i| batch.row(i)[0].as_i64().unwrap()).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(keys_of(&a.batch), (0..GROUPS).collect::<Vec<i64>>());
    assert_eq!(keys_of(&b.batch), (1_000_000..1_000_000 + GROUPS).collect::<Vec<i64>>());
    for report in [&a, &b] {
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[1].label, "agg#1");
        // Each of the 3 senders wrote its file; each merge worker read
        // exactly its own fleet's 3.
        assert_eq!(report.stages[0].put_requests, 3);
        assert_eq!(report.stages[1].get_requests, 9);
    }
}
