//! One run of one workload: the protocol every workload follows.
//!
//! A run is `sessions` fresh installations. Each session runs its untimed
//! warm-up ops (the first is the cold op) and then its timed ops; samples
//! pool over sessions. Every result is checked against the reference
//! outside the timed interval. All load comes from this one OS thread:
//! the sim executor is `Rc`-based, and service clients are sim tasks.
//!
//! The two clocks are independent. Worker compute is charged from row
//! counts and the cost model's constants, never from measured kernel
//! time, so host-side speed-ups move only host metrics, and scheduler or
//! transport changes move only virtual time and dollars.

use std::rc::Rc;

use lambada::core::streaming::windowed_event_schema;
use lambada::core::{ContinuousQuery, QueryReport, TableSpec};
use lambada::engine::{LogicalPlan, Optimizer, RecordBatch};
use lambada::sim::{secs, BillingSnapshot, CostItem, EventSource, SimTime};

use crate::layers::{self, OpStart, Probe, Samples};
use crate::metrics::{Metrics, FAILED_SHARE};
use crate::oracle::{self, Fingerprint, StreamOracle};
use crate::trace::{Open, Recorder};
use crate::workload::{self, Kind, Session, Sizes, Workload};
use crate::{gauges, replay, stats};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// What a reader should know beside the numbers (sample counts,
    /// failed checks).
    pub notes: Vec<String>,
    /// Chrome-trace JSON of a traced run.
    pub chrome_trace: Option<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Everything a run accumulates over its sessions.
#[derive(Default)]
struct Collected {
    setup_ns: Vec<f64>,
    /// Host milliseconds per op, one sample per timed op (per round for
    /// `service_mix`), split by whether the op was recorded.
    host_ms: Vec<f64>,
    host_ms_recorded: Vec<f64>,
    /// On-CPU nanoseconds of all timed ops and rounds (`schedstat` only
    /// moves at scheduler ticks, so it is summed, not sampled per op).
    cpu_ns_total: f64,
    /// Host nanoseconds of all timed ops and rounds.
    host_ns_total: f64,
    /// Virtual span of each timed op.
    spans: Vec<f64>,
    cold_spans: Vec<f64>,
    /// Virtual seconds from first submission to last completion, and the
    /// ledger delta over the same region, summed over sessions.
    timed_virtual_s: f64,
    ledger: [(f64, f64); CostItem::ALL.len()],
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    layers: Samples,
    /// Host milliseconds of the recorded ops' `plan`, `optimize`,
    /// `verify` and `execute` spans, per op.
    plan_ms: Vec<f64>,
    optimize_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    /// Host nanoseconds and sim steps of the recorded ops' `execute` spans.
    execute_ns_total: f64,
    execute_steps: f64,
    /// Workers per stage of each plan, from the first timed op.
    fleets: Vec<Vec<usize>>,
    /// Streaming: events in timed batches, the reference over the whole
    /// stream (the same for every session of a seed).
    timed_events: u64,
    stream_reference: Option<RecordBatch>,
    cold_fingerprint: Option<Fingerprint>,
}

impl Collected {
    fn fail(&mut self, what: String) {
        self.fail_ops(1, what);
    }

    fn fail_ops(&mut self, ops: u64, what: String) {
        self.failed += ops;
        // One line per kind of failure is enough to act on.
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    fn add_ledger(&mut self, delta: &BillingSnapshot) {
        for (slot, item) in self.ledger.iter_mut().zip(CostItem::ALL) {
            slot.0 += delta.units(item);
            slot.1 += delta.dollars(item);
        }
    }

    fn dollars(&self, items: &[CostItem]) -> f64 {
        CostItem::ALL
            .iter()
            .zip(&self.ledger)
            .filter(|(i, _)| items.contains(i))
            .map(|(_, l)| l.1)
            .sum()
    }

    fn units(&self, item: CostItem) -> f64 {
        CostItem::ALL.iter().zip(&self.ledger).find(|(i, _)| **i == item).map_or(0.0, |(_, l)| l.0)
    }
}

/// Host-side measurements of one op.
struct OpHost {
    host_ns: u64,
    cpu_ns: u64,
    recorded: bool,
}

/// What one op (or round) runs between: the cloud's gauges, the CPU
/// clock and the `op` span.
struct Bracket {
    start: OpStart,
    cpu0: u64,
    op: Open,
    /// In a traced run every other timed op is recorded; the rest run
    /// exactly as in an untraced run, which gives the tracing overhead
    /// from one process and one heap.
    recorded: bool,
    tracing: bool,
}

impl Bracket {
    fn open(
        rec: &mut Recorder,
        probe: &Probe<'_>,
        index: usize,
        timed_index: Option<usize>,
    ) -> Self {
        let tracing = rec.enabled();
        let recorded = tracing && timed_index.is_some_and(|i| i % 2 == 0);
        rec.set_enabled(recorded);
        rec.set_op(Some(index as u32));
        let start = probe.start();
        let cpu0 = gauges::on_cpu_ns();
        Bracket { start, cpu0, op: rec.begin("op"), recorded, tracing }
    }

    fn close(self, rec: &mut Recorder) -> (OpStart, OpHost) {
        let host_ns = rec.end(self.op);
        let host =
            OpHost { host_ns, cpu_ns: gauges::on_cpu_ns() - self.cpu0, recorded: self.recorded };
        rec.set_op(None);
        rec.set_enabled(self.tracing);
        (self.start, host)
    }
}

/// The timed region of a session: where it began in virtual time and
/// what the ledger read then.
type Region = Option<(SimTime, BillingSnapshot)>;

fn close_region(c: &mut Collected, session: &Session, region: Region) {
    if let Some((began, ledger)) = region {
        c.timed_virtual_s += (session.sim.now() - began).as_secs_f64();
        c.add_ledger(&session.cloud.billing.snapshot().since(&ledger));
    }
}

pub fn run(args: &RunArgs) -> RunOutput {
    let kind = args.workload.kind;
    let sizes = workload::sizes(kind, args.seconds, args.quick);
    let plans = workload::plans(kind);
    let mut rec = Recorder::new(args.trace);
    let mut c = Collected::default();
    let run_span = rec.begin("run");

    // The reference runs on the same generated columns the sessions
    // stage; one pass serves every session, since the data seed is fixed.
    let tables = workload::generate(kind, &sizes, args.seed);
    let span = rec.begin("reference");
    let (reference, reference_rows) = oracle::reference_results(&tables, &plans);
    let reference_ns = rec.end_with(span, &[("rows", reference_rows as f64)]);
    drop(tables);

    let mut last_session: Option<Session> = None;
    for index in 0..sizes.sessions {
        // One session's cloud at a time: peak RSS is the largest
        // session's, not the sum of two.
        drop(last_session.take());
        let span = rec.begin("session");
        let mut session = workload::setup(kind, &sizes, args.seed, index, &mut rec);
        let ctx = Ctx { kind, sizes: &sizes, plans: &plans, reference: &reference, args };
        let cold = run_session(&ctx, &mut session, &mut rec, &mut c, true);
        c.setup_ns.push(session.setup_ns as f64);
        if index == 0 {
            c.cold_fingerprint = cold;
        }
        rec.end(span);
        last_session = Some(session);
    }

    // Determinism probe: the cold op again, on a second fresh cloud with
    // session 0's seeds. Span, dollars and request counts must repeat.
    let span = rec.begin("determinism_probe");
    let mut unrecorded = Recorder::new(false);
    let mut probe = workload::setup(kind, &sizes, args.seed, 0, &mut unrecorded);
    let ctx = Ctx { kind, sizes: &sizes, plans: &plans, reference: &reference, args };
    let again = run_session(&ctx, &mut probe, &mut unrecorded, &mut c, false);
    drop(probe);
    rec.end(span);
    if again != c.cold_fingerprint {
        c.fail("determinism probe: the cold op did not repeat on a fresh cloud".to_string());
    }

    let mut metrics = Metrics::default();
    end_to_end(&mut metrics, &c);
    let p90 = stats::p90(&c.spans);
    c.notes.push(format!(
        "host_ms_per_op: lower quartile of {} samples, median {} ms",
        c.host_ms.len(),
        stats::median(&c.host_ms)
    ));
    c.notes.push(format!(
        "op_span_virtual_p90_s: {} samples, {} beyond the percentile{}",
        c.spans.len(),
        p90.beyond,
        if p90.supported() { "" } else { " (fewer than the ten a p90 needs)" }
    ));
    if args.trace {
        let session = last_session.as_ref().expect("a run has a session");
        let input = replay::Input {
            kind,
            sizes: &sizes,
            seed: args.seed,
            session,
            plans: &plans,
            fleets: &c.fleets,
            reference: &reference,
        };
        let replayed = replay::replay(&input, &mut rec);
        if let Err(e) = &replayed.check {
            c.fail(format!("replay: {e}"));
        }
        per_layer(&mut metrics, &c, &replayed, reference_rows, reference_ns);
    }
    drop(last_session);
    rec.end(run_span);
    metrics.set("peak_rss_mib", gauges::peak_rss_mib());
    metrics.set(FAILED_SHARE, c.failed as f64 / c.attempted.max(1) as f64);

    RunOutput {
        attempted: c.attempted,
        failed: c.failed,
        metrics,
        notes: c.notes,
        chrome_trace: args.trace.then(|| rec.chrome_trace(args.workload.name)),
    }
}

struct Ctx<'a> {
    kind: Kind,
    sizes: &'a Sizes,
    plans: &'a [LogicalPlan],
    reference: &'a [RecordBatch],
    args: &'a RunArgs,
}

/// Run one session's ops. With `full` false only the cold op runs (the
/// determinism probe). Returns the cold op's fingerprint.
fn run_session(
    ctx: &Ctx<'_>,
    session: &mut Session,
    rec: &mut Recorder,
    c: &mut Collected,
    full: bool,
) -> Option<Fingerprint> {
    match ctx.kind {
        Kind::ServiceMix => service_session(ctx, session, rec, c, full),
        Kind::StreamWindows => stream_session(ctx, session, rec, c, full),
        _ => batch_session(ctx, session, rec, c, full),
    }
}

fn probe(session: &Session) -> Probe<'_> {
    let config = session.system().config();
    let mut buckets: Vec<String> =
        (0..config.exchange.num_buckets.max(1)).map(|i| config.exchange.bucket_of(i)).collect();
    buckets.push(config.result_bucket.clone());
    Probe { sim: &session.sim, cloud: &session.cloud, buckets }
}

/// The spans a recorded op adds around the calls that an unrecorded op
/// makes in one piece: `plan` (`Lambada::plan`), `optimize` (the
/// optimizer alone, a call the op would not otherwise make) and `verify`
/// (`Lambada::verify_plan`, likewise extra).
fn record_planning(
    session: &Session,
    plan: &LogicalPlan,
    rec: &mut Recorder,
    ns: &mut [u64; 3],
) -> lambada::core::Result<lambada::core::QueryDag> {
    let system = session.system();
    let span = rec.begin("plan");
    let dag = system.plan(plan);
    ns[0] += rec.end(span);
    let span = rec.begin("optimize");
    let hints = session.tables.iter().map(|t| (t.name.clone(), t.total_rows)).collect();
    let _ = std::hint::black_box(Optimizer::with_row_hints(hints).optimize(plan));
    ns[1] += rec.end(span);
    let dag = dag?;
    let span = rec.begin("verify");
    let verified = system.verify_plan(&dag);
    ns[2] += rec.end(span);
    verified.map(|()| dag)
}

/// Record a recorded op's spans: planning spans covered `planned` ops'
/// worth of queries, the `execute` span ran `ops` of them in `steps`.
fn push_planning(
    c: &mut Collected,
    ns: [u64; 3],
    planned: usize,
    execute_ns: u64,
    ops: usize,
    steps: u64,
) {
    let ms = |ns: u64, over: usize| ns as f64 / 1e6 / over as f64;
    c.plan_ms.push(ms(ns[0], planned));
    c.optimize_ms.push(ms(ns[1], planned));
    c.verify_ms.push(ms(ns[2], planned));
    c.execute_ms.push(ms(execute_ns, ops));
    c.execute_ns_total += execute_ns as f64;
    c.execute_steps += steps as f64;
}

fn push_host(c: &mut Collected, host: &OpHost, ops: usize) {
    let ms = host.host_ns as f64 / 1e6 / ops as f64;
    if host.recorded {
        c.host_ms_recorded.push(ms);
    } else {
        c.host_ms.push(ms);
    }
    c.cpu_ns_total += host.cpu_ns as f64;
    c.host_ns_total += host.host_ns as f64;
}

/// `scan_agg`, `join_shuffle`, `groupby_direct`, `scan_sf1000_modeled`:
/// an op runs the workload's queries one after another (closed loop, one
/// client).
fn batch_session(
    ctx: &Ctx<'_>,
    session: &mut Session,
    rec: &mut Recorder,
    c: &mut Collected,
    full: bool,
) -> Option<Fingerprint> {
    let system = session.system();
    let prices = session.cloud.billing.prices();
    let probe = probe(session);
    let modeled: Option<Vec<(usize, u64)>> = (ctx.kind == Kind::ScanSf1000Modeled).then(|| {
        let scan = &system.config().scan;
        ctx.plans
            .iter()
            .map(|p| {
                let dag = system.plan(p).expect("modeled plan");
                oracle::modeled_closed_form(&session.tables[0], &dag, scan)
            })
            .collect()
    });
    let total = if full { ctx.sizes.warmups + ctx.sizes.timed } else { 1 };
    let mut cold = None;
    let mut region: Region = None;
    for i in 0..total {
        let timed_index = i.checked_sub(ctx.sizes.warmups);
        if timed_index == Some(0) {
            region = Some((session.sim.now(), session.cloud.billing.snapshot()));
        }
        let bracket = Bracket::open(rec, &probe, i, timed_index);
        let recorded = bracket.recorded;
        let mut planning = [0; 3];
        let mut execute_ns = 0;
        let reports: Vec<lambada::core::Result<QueryReport>> = ctx
            .plans
            .iter()
            .map(|plan| {
                if recorded {
                    let dag = record_planning(session, plan, rec, &mut planning)?;
                    let span = rec.begin("execute");
                    let report = session.sim.block_on(system.run_dag(&dag));
                    execute_ns += rec.end(span);
                    report
                } else {
                    session.sim.block_on(system.run_query(plan))
                }
            })
            .collect();
        let (start, host) = bracket.close(rec);

        // Everything below is outside the timed interval.
        let mut ok = Vec::with_capacity(reports.len());
        let mut failure = None;
        for (q, report) in reports.into_iter().enumerate() {
            match report {
                Err(e) => failure = Some(format!("query {q} failed: {e}")),
                Ok(r) => {
                    let checked = match &modeled {
                        Some(want) => oracle::check_modeled(&r, want[q]),
                        None => oracle::batches_match(&r.batch, &ctx.reference[q]),
                    };
                    if let Err(e) = checked {
                        failure = Some(format!("query {q}: {e}"));
                    }
                    ok.push(r);
                }
            }
        }
        let span_s: f64 = ok.iter().map(|r| r.span_secs).sum();
        if i == 0 {
            cold = Some(Fingerprint::of(&ok, &prices));
            if full {
                c.cold_spans.push(span_s);
            }
        }
        if timed_index.is_none() {
            // Warm-up: not an attempted op, but a wrong result still
            // fails the run.
            if let Some(e) = failure {
                c.fail(format!("warm-up op {i}: {e}"));
            }
            session.cloud.trace.clear();
            continue;
        }
        c.attempted += 1;
        if let Some(e) = failure {
            c.fail(format!("op {i}: {e}"));
            session.cloud.trace.clear();
            continue;
        }
        if c.fleets.is_empty() {
            c.fleets = ok.iter().map(|r| r.stages.iter().map(|s| s.workers).collect()).collect();
        }
        push_host(c, &host, 1);
        c.spans.push(span_s);
        let steps_now = session.sim.steps();
        if recorded {
            push_planning(c, planning, 1, execute_ns, 1, steps_now - start.steps);
        }
        layers::ingest(&mut c.layers, &ok, &probe, &start, 1, true);
    }
    close_region(c, session, region);
    cold
}

/// `service_mix`: closed-loop tenant clients, each a sim task that sends
/// its next query when the previous one completes. An op is one query; a
/// round (every client's queries) is the timed unit, and host time per
/// op is the round's wall time over its queries.
fn service_session(
    ctx: &Ctx<'_>,
    session: &mut Session,
    rec: &mut Recorder,
    c: &mut Collected,
    full: bool,
) -> Option<Fingerprint> {
    let prices = session.cloud.billing.prices();
    let probe = probe(session);
    let plans = Rc::new(ctx.plans.to_vec());
    let (clients, per_client) = (ctx.sizes.clients, ctx.sizes.queries_per_client);
    let per_round = clients * per_client;
    let total = if full { ctx.sizes.warmups + ctx.sizes.timed } else { 1 };
    let mut cold = None;
    let mut region: Region = None;
    let mut tenant_spans = vec![Vec::new(); clients];
    for round in 0..total {
        let timed_index = round.checked_sub(ctx.sizes.warmups);
        if timed_index == Some(0) {
            region = Some((session.sim.now(), session.cloud.billing.snapshot()));
        }
        let bracket = Bracket::open(rec, &probe, round, timed_index);
        let recorded = bracket.recorded;
        let mut planning = [0; 3];
        if recorded {
            // The service plans inside the tasks it spawns; the spans
            // repeat that work once per distinct query of the mix.
            for plan in plans.iter() {
                let _ = record_planning(session, plan, rec, &mut planning);
            }
        }
        let span = rec.begin("execute");
        let outcomes: Vec<Vec<(usize, lambada::core::Result<QueryReport>)>> =
            session.sim.block_on(async {
                let tasks: Vec<_> = (0..clients)
                    .map(|client| {
                        let service = Rc::clone(&session.service);
                        let plans = Rc::clone(&plans);
                        session.cloud.handle.spawn(async move {
                            let tenant = format!("tenant{client}");
                            let mut out = Vec::with_capacity(per_client);
                            for j in 0..per_client {
                                let q = (client + j) % plans.len();
                                out.push((q, service.submit(&tenant, &plans[q]).await));
                            }
                            out
                        })
                    })
                    .collect();
                lambada::sim::sync::join_all(tasks).await
            });
        let execute_ns = rec.end_with(span, &[("queries", per_round as f64)]);
        let (start, host) = bracket.close(rec);

        let mut ok = Vec::with_capacity(per_round);
        let mut failures = Vec::new();
        for (client, queries) in outcomes.into_iter().enumerate() {
            for (q, outcome) in queries {
                match outcome {
                    Err(e) => failures.push(format!("tenant{client} query {q} failed: {e}")),
                    Ok(r) => {
                        if let Err(e) = oracle::batches_match(&r.batch, &ctx.reference[q]) {
                            failures.push(format!("tenant{client} query {q}: {e}"));
                        } else if timed_index.is_some() {
                            tenant_spans[client].push(r.span_secs);
                        }
                        ok.push(r);
                    }
                }
            }
        }
        if round == 0 {
            cold = Some(Fingerprint::of(&ok, &prices));
            if full {
                c.cold_spans
                    .push(stats::median(&ok.iter().map(|r| r.span_secs).collect::<Vec<_>>()));
            }
        }
        let timed = timed_index.is_some();
        if timed {
            c.attempted += per_round as u64;
        }
        for f in failures {
            c.fail(format!("round {round}: {f}"));
        }
        if !timed || ok.len() != per_round {
            session.cloud.trace.clear();
            continue;
        }
        if c.fleets.is_empty() {
            // One fleet plan per query of the mix, from its first run.
            c.fleets = (0..plans.len())
                .map(|q| {
                    let j = (0..per_round)
                        .find(|j| (j / per_client + j % per_client) % plans.len() == q);
                    j.map_or(Vec::new(), |j| ok[j].stages.iter().map(|s| s.workers).collect())
                })
                .collect();
        }
        push_host(c, &host, per_round);
        let steps_now = session.sim.steps();
        if recorded {
            push_planning(c, planning, plans.len(), execute_ns, per_round, steps_now - start.steps);
        }
        for r in &ok {
            c.spans.push(r.span_secs);
            c.layers.push("admission_wait", r.span_secs - r.latency_secs);
            c.layers.push("request_usd", r.request_dollars(&prices));
        }
        layers::ingest(&mut c.layers, &ok, &probe, &start, per_round, false);
    }
    if region.is_some() {
        close_region(c, session, region);
        c.layers.push("peak_inflight", session.service.peak_inflight_workers() as f64);
        let means: Vec<f64> = tenant_spans.iter().map(|s| stats::mean(s)).collect();
        let (lo, hi) =
            means.iter().fold((f64::MAX, 0.0_f64), |(lo, hi), &m| (lo.min(m), hi.max(m)));
        c.layers.push("tenant_span_spread", if lo > 0.0 { hi / lo } else { 0.0 });
    }
    cold
}

/// `stream_windows`: an op is one micro-batch through a
/// `ContinuousQuery`. The loop is open in virtual time: batch `i` is due
/// at `i * interval`, the driver sleeps until then when it is early, and
/// the batch's span counts from its due time, so a stall is charged to
/// every batch it delays.
fn stream_session(
    ctx: &Ctx<'_>,
    session: &mut Session,
    rec: &mut Recorder,
    c: &mut Collected,
    full: bool,
) -> Option<Fingerprint> {
    let prices = session.cloud.billing.prices();
    let probe = probe(session);
    let spec = workload::stream_spec();
    let source_config = workload::stream_source(ctx.args.seed);
    let mut source = EventSource::new(source_config);
    // Events are the same for every session of a seed, so the first
    // session's reference serves the rest.
    let mut oracle = (full && c.stream_reference.is_none()).then(|| {
        StreamOracle::new(spec.window, spec.lateness, source_config, workload::stream_plan)
    });
    let service = Rc::clone(&session.service);
    let mut query = ContinuousQuery::new(&service, "stream", "bench", spec, |_, table| {
        Ok(workload::stream_plan(table))
    })
    .expect("the streaming plan verifies");
    // A schema-only table under the plan's name, for the planning spans.
    let schema_only = TableSpec::new("events", windowed_event_schema(), Vec::new(), 0);
    session.system().register_table_shared(schema_only);

    let origin = session.sim.now();
    let total = if full { ctx.sizes.warmups + ctx.sizes.timed } else { 1 };
    let mut emitted = Vec::new();
    let mut failed_batches = 0u64;
    let mut cold = None;
    let mut region: Region = None;
    let mut generate_ns = 0;
    for i in 0..total {
        let timed_index = i.checked_sub(ctx.sizes.warmups);
        // Generating the batch is set-up: it happens between ops and is
        // accounted to the session's set-up time.
        let span = rec.begin("generate");
        let events = source.next_events(ctx.sizes.events_per_batch);
        generate_ns += rec.end_with(span, &[("rows", events.len() as f64)]);
        if let Some(o) = &mut oracle {
            o.push(&events);
        }
        let due = origin + secs(i as f64 * ctx.sizes.batch_interval_s);
        if timed_index == Some(0) {
            region = Some((due.max(session.sim.now()), session.cloud.billing.snapshot()));
        }
        let bracket = Bracket::open(rec, &probe, i, timed_index);
        let recorded = bracket.recorded;
        let mut planning = [0; 3];
        if recorded {
            let _ = record_planning(session, &ctx.plans[0], rec, &mut planning);
        }
        let span = rec.begin("execute");
        let (began, outcome) = session.sim.block_on(async {
            session.cloud.handle.sleep_until(due).await;
            (session.sim.now(), query.push_batch(&events).await)
        });
        let execute_ns = rec.end_with(span, &[("rows", events.len() as f64)]);
        let (start, host) = bracket.close(rec);

        if timed_index.is_some() {
            c.attempted += 1;
        }
        let report = match outcome {
            Ok(r) => r,
            Err(e) => {
                failed_batches += 1;
                c.fail(format!("batch {i} failed: {e}"));
                session.cloud.trace.clear();
                continue;
            }
        };
        if report.emitted.num_rows() > 0 {
            emitted.push(report.emitted);
        }
        let ok: Vec<QueryReport> = report.query.into_iter().collect();
        if i == 0 {
            cold = Some(Fingerprint::of(&ok, &prices));
        }
        let span_s = (session.sim.now() - due).as_secs_f64();
        if i == 0 && full {
            c.cold_spans.push(span_s);
        }
        if timed_index.is_none() {
            session.cloud.trace.clear();
            continue;
        }
        if c.fleets.is_empty() {
            c.fleets = ok.iter().map(|r| r.stages.iter().map(|s| s.workers).collect()).collect();
        }
        push_host(c, &host, 1);
        c.spans.push(span_s);
        c.timed_events += events.len() as u64;
        let steps_now = session.sim.steps();
        if recorded {
            push_planning(c, planning, 1, execute_ns, 1, steps_now - start.steps);
        }
        c.layers.push("generator_lag", (began - due).as_secs_f64());
        c.layers.push("late_events", report.late_events as f64);
        c.layers.push("carried_groups", query.carried_groups() as f64);
        layers::ingest(&mut c.layers, &ok, &probe, &start, 1, false);
    }
    session.setup_ns += generate_ns;
    close_region(c, session, region);
    if !full {
        return cold;
    }

    // The oracle: emissions over the whole stream, flush included, must
    // equal the batch reference over the kept events. A mismatch cannot
    // be pinned on one batch, so it fails every batch of the session.
    emitted.push(query.finish().expect("end-of-stream flush"));
    let schema = query.agg_schema().clone();
    let emitted = RecordBatch::concat(schema, &emitted).expect("emissions share a schema");
    c.layers.push("emitted_rows", emitted.num_rows() as f64);
    if let Some(o) = oracle {
        c.stream_reference = Some(o.finish());
    }
    let reference = c.stream_reference.as_ref().expect("computed by the first session");
    if let Err(e) = oracle::batches_match(&emitted, reference) {
        let rest = (ctx.sizes.timed as u64).saturating_sub(failed_batches);
        c.fail_ops(rest, format!("stream emissions differ from the batch reference: {e}"));
    }
    cold
}

/// What an op (or a set-up) costs on the host when the box leaves it
/// alone: the lower quartile of its wall times. Interference on a shared
/// box comes in bursts of seconds and only ever adds time, so across
/// repeated runs the lower quartile moves about half as much as the
/// median.
fn undisturbed(times: &[f64]) -> f64 {
    stats::quartiles(times).map_or_else(|| stats::median(times), |(q1, _)| q1)
}

fn end_to_end(m: &mut Metrics, c: &Collected) {
    let ops = c.attempted.max(1) as f64;
    m.set("setup_s", undisturbed(&c.setup_ns) / 1e9);
    m.set("host_ms_per_op", undisturbed(&c.host_ms));
    m.set("op_span_virtual_s", stats::median(&c.spans));
    m.set("op_span_virtual_p90_s", stats::p90(&c.spans).value);
    m.set("op_cost_usd", c.ledger.iter().map(|l| l.1).sum::<f64>() / ops);
    m.set("ops_per_virtual_s", if c.timed_virtual_s > 0.0 { ops / c.timed_virtual_s } else { 0.0 });
}

fn per_layer(
    m: &mut Metrics,
    c: &Collected,
    r: &replay::Replayed,
    reference_rows: u64,
    reference_ns: u64,
) {
    use CostItem::{
        KvReads, KvWrites, LambdaGibSeconds, LambdaRequests, S3Get, S3List, S3Put, SqsRequests,
    };
    let l = &c.layers;
    let ops = c.attempted.max(1) as f64;
    for name in layers::MEDIAN_OF_OPS {
        m.set(name, l.median(name));
    }
    m.set("core.invoke.cold_span_virtual_s", stats::median(&c.cold_spans));
    m.set("core.invoke.cold_starts", l.sum("core.invoke.cold_starts"));
    m.set("core.worker.backup_invocations", l.sum("core.worker.backup_invocations"));

    // X: host spans around public calls on the in-sim path.
    let execute_ms = stats::median(&c.execute_ms);
    m.set("engine.optimizer.ms", stats::median(&c.optimize_ms));
    m.set("core.stage.plan_ms", stats::median(&c.plan_ms));
    m.set("core.verify.ms", stats::median(&c.verify_ms));
    m.set("core.driver.execute_ms", execute_ms);
    m.set(
        "core.driver.unattributed_share",
        if execute_ms > 0.0 { 1.0 - r.in_path_ms_per_op / execute_ms } else { 0.0 },
    );
    m.set("core.driver.op_cpu_ms", c.cpu_ns_total / 1e6 / ops);
    let (q1, q3) = stats::quartiles(&c.host_ms).unwrap_or((0.0, 0.0));
    m.set("core.driver.host_ms_iqr", q3 - q1);
    let (plain, recorded) = (undisturbed(&c.host_ms), undisturbed(&c.host_ms_recorded));
    m.set(
        "core.driver.trace_overhead_share",
        if plain > 0.0 { recorded / plain - 1.0 } else { 0.0 },
    );
    m.set(
        "sim.host_ns_per_step",
        if c.execute_steps > 0.0 { c.execute_ns_total / c.execute_steps } else { 0.0 },
    );
    let host_s = c.host_ns_total / 1e9;
    m.set("sim.virtual_s_per_host_s", if host_s > 0.0 { c.timed_virtual_s / host_s } else { 0.0 });

    // Service and streaming (0 elsewhere: the layer does not run).
    m.set("core.service.admission_wait_virtual_s", l.median("admission_wait"));
    m.set("core.service.admission_wait_virtual_p90_s", stats::p90(l.get("admission_wait")).value);
    m.set("core.service.peak_inflight_workers", l.max("peak_inflight"));
    m.set("core.service.tenant_span_spread", l.max("tenant_span_spread"));
    m.set("core.service.request_usd_per_op", stats::mean(l.get("request_usd")));
    let events = c.timed_events as f64;
    let dollars: f64 = c.ledger.iter().map(|l| l.1).sum();
    m.set(
        "core.streaming.events_per_virtual_s",
        if events > 0.0 { events / c.timed_virtual_s } else { 0.0 },
    );
    m.set("core.streaming.events_per_host_s", if events > 0.0 { events / host_s } else { 0.0 });
    m.set("core.streaming.generator_lag_virtual_s", l.median("generator_lag"));
    m.set("core.streaming.late_events", l.sum("late_events"));
    m.set("core.streaming.carried_groups_peak", l.max("carried_groups"));
    m.set("core.streaming.emitted_rows", l.sum("emitted_rows"));
    m.set(
        "core.streaming.usd_per_million_events",
        if events > 0.0 { dollars / events * 1e6 } else { 0.0 },
    );

    // The ledger over the timed region, per op.
    m.set("sim.billing.lambda_usd", c.dollars(&[LambdaGibSeconds, LambdaRequests]) / ops);
    m.set("sim.billing.s3_request_usd", c.dollars(&[S3Get, S3Put, S3List]) / ops);
    m.set("sim.billing.other_usd", c.dollars(&[SqsRequests, KvReads, KvWrites]) / ops);
    m.set("sim.s3.get_requests", c.units(S3Get) / ops);
    m.set("sim.s3.put_requests", c.units(S3Put) / ops);
    m.set("sim.s3.list_requests", c.units(S3List) / ops);

    // P: the replay.
    m.set(
        "engine.reference.rows_per_s",
        if reference_ns > 0 { reference_rows as f64 / (reference_ns as f64 / 1e9) } else { 0.0 },
    );
    r.write(m);
}
