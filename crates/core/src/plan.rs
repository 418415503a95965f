//! The launch planner: everything about a query's fleets that can be
//! known before the first invocation, as a value — the [`LaunchPlan`].
//!
//! The planner reads the stage DAG, the registered tables, the
//! installation's [`LambadaConfig`] and the cloud's [`CloudConfig`] (its
//! region and service models), and nothing else: no service is called and
//! no simulated time passes, so a plan can be built, printed and tested
//! without a cloud. [`crate::Lambada::plan`], [`crate::Lambada::launch_plan`]
//! and [`crate::Lambada::verify_plan`] delegate here; the driver, the
//! query's scope and the service's admission estimate read the plan as it
//! is, and none of them sizes or wires anything again. `tests/plan_table.rs`
//! renders the plan of every benchmark query and holds it to a committed
//! text, so a change to a planner choice shows as a diff of that text.
//!
//! Everything is fixed once per `(dag, fleet_cap)`, in [`launch_plan`]:
//! the DAG is verified, then one pass over the stages yields each stage's
//! pin, byte estimate and fleet size (scans by their file sizes, consumer
//! fleets by their pin or else the compute cost model), and the DAG's
//! edge table ([`crate::stage::EdgeTable`]) turns those into every
//! out-edge's partition count and sort-edge spec, and marks the edges that
//! are *fused*. Last, the plan is verified: its fleets
//! ([`crate::verify::verify_fleets`]), its placements
//! ([`crate::verify::verify_fused`]) and that every invocation fits the
//! platform's caps ([`crate::verify::verify_payloads`]).
//!
//! A stage boundary costs something only where rows change workers. An
//! edge from a one-worker fleet into a one-worker consumer that alone
//! reads it is an identity, so it may be handed on in memory
//! ([`LaunchPlan::placement`]). The consumer runs inside its *host*, the
//! producer's invocation, and a chain of such stages (Q12's orders scan
//! → join → agg → sort) is one fleet, one invocation, one result message
//! — with one report per stage all the same. The consumer's other
//! one-worker inputs that are scans run in that invocation too,
//! *co-hosted* beside the chain from its start (Q5's customer scan beside
//! the orders scan's chain): a chain plus its co-hosted scans is one
//! invocation ([`LaunchPlan::chain`]). A member that reads another edge
//! (Q12's join) *waits*: that edge's reports reach it through its inbox
//! while the host runs (`LaunchPlan::handoff`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use lambada_engine::{LogicalPlan, Optimizer};
use lambada_sim::CloudConfig;

use crate::driver::{AggStrategy, LambadaConfig, SortStrategy};
use crate::error::{CoreError, Result};
use crate::invoke;
use crate::predict::{Rates, ScanWork};
use crate::stage::{EdgeTable, QueryDag, Reader, ReaderRole, SortStage, SplitOptions, StageKind};
use crate::table::{TableFile, TableSpec};
use crate::verify;
use crate::worker::ScanFiles;

/// The registered tables a plan reads, by name.
pub type Tables = HashMap<String, Rc<TableSpec>>;

/// Where a stage's output goes relative to its invocation, fixed once per
/// launch plan ([`LaunchPlan::placement`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Its output leaves its invocation: through the transport to its
    /// readers' fleets, or to the driver.
    Apart,
    /// Its out-edge is *fused*: the stage is its reader's *host*. Both
    /// run on one worker, the reader is the edge's only one, and the
    /// reader runs after it inside its invocation on the parts it hands
    /// on. A reader with another in-edge that is not co-hosted gets that
    /// edge's reports through its inbox while the host runs.
    Fused,
    /// A one-worker scan *co-hosted* in its reader's host invocation: it
    /// starts at that invocation's start, beside the chain, and hands its
    /// parts to its reader — its only one, one worker with a host — in
    /// memory. The scan has one worker because its files pack into one,
    /// or because [`launch_plan`] priced folding a wider packed scan into
    /// one cheaper than crossing the edge; either way its one run holds
    /// every file.
    CoHosted,
}

/// Everything about a query's fleets that is fixed before the first
/// invocation, for one `(dag, fleet_cap)`: the DAG's [`EdgeTable`] plus,
/// per stage, the installation's pin, the fleet size, the partition count
/// of its out-edge, its [`Placement`], its inline budget, its byte
/// estimate and — for a scan — the files its workers read. Built by
/// [`launch_plan`]; the fleet verifier, the query's scope, the
/// stage-task builder and the service's admission estimate all read it
/// as it is.
pub struct LaunchPlan<'a> {
    pub edges: EdgeTable<'a>,
    /// The installation's fixed fleet size (`join_workers`, the
    /// `workers` of [`AggStrategy::Exchange`] / [`SortStrategy::Exchange`]);
    /// `None` for scans and for consumers the cost model sizes.
    pub pins: Vec<Option<usize>>,
    /// Fleet size.
    pub workers: Vec<usize>,
    /// How many ways the stage shards its output: its consumers' fleet
    /// size, 0 for the driver-bound last stage.
    pub partitions: Vec<usize>,
    /// Where the stage's output goes. A fused or co-hosted out-edge costs
    /// no exchange objects, requests, invocation or result message.
    pub placement: Vec<Placement>,
    /// How many encoded bytes each sender of the stage's out-edge may
    /// ship inline: its [`crate::transport::inline_budget`] among every
    /// sender of all the reader's in-edges — its
    /// [`crate::transport::block_budget`] on a sort edge — the smallest
    /// over its readers. A reader that heads a chain leaves room beside
    /// the sections for its chain's co-hosted inline files, which ride
    /// the same payload. `u64::MAX` for the driver-bound last stage,
    /// which ships nothing.
    pub inline_budgets: Vec<u64>,
    /// For scan stages, the files the fleet's workers read: the table,
    /// each worker's run of its files and how to read them — shared as
    /// is with every worker of the fleet.
    pub scans: Vec<Option<Rc<ScanFiles>>>,
    /// The bytes the stage is estimated to take in or put out, which
    /// sized its fleet and ranks its hosts ([`launch_plan`]'s estimates);
    /// empty for a plan wired by hand.
    pub est: Vec<u64>,
}

impl<'a> LaunchPlan<'a> {
    /// Wire sized fleets to the edges: every out-edge's partition count,
    /// inline budget and placement follow from its readers' fleet sizes.
    /// Taking the last reader is exact on every plan that is used:
    /// [`crate::verify::verify_fleets`], run on the wired plan, holds
    /// every consumer of a shared edge to one fleet size (`V-FLEET-004`).
    ///
    /// Placement: a one-worker consumer runs in the invocation of its
    /// *host*, the one-worker input it alone reads with the deepest chain
    /// — ties go to the larger byte estimate `est`, then to the lower
    /// stage id. The deepest chain is the one likely to finish last, so
    /// the consumer's other inputs have most time to complete before the
    /// host needs them. Every *other* such input that reads no edge — a
    /// scan — is co-hosted: it runs in the same invocation, beside the
    /// chain, so a chain plus its co-hosted scans is one invocation — but
    /// only while the inline files of every scan in that invocation, which
    /// all ride its one payload, fit `invoke::inline_file_budget` of one
    /// worker (`inline_file_bytes`); past it the scan stays apart. A
    /// chain launches when its head may, and a member's remaining in-edge
    /// reaches it through its inbox. Placement reads fleet sizes and
    /// inline bytes only: a scan the launch plan folded into one worker is
    /// placed like any other one-worker input, as its reader's host or
    /// co-hosted.
    pub fn wire(
        edges: EdgeTable<'a>,
        pins: Vec<Option<usize>>,
        workers: Vec<usize>,
        est: Vec<u64>,
        scans: Vec<Option<Rc<ScanFiles>>>,
    ) -> LaunchPlan<'a> {
        let n = workers.len();
        // Stages are in topological order, so every input's chain depth
        // is final before its reader picks a host.
        let (mut placement, mut depth) = (vec![Placement::Apart; n], vec![1usize; n]);
        // The inline file bytes of each one-worker stage's invocation so far.
        let mut carried: Vec<u64> = (0..n).map(|s| inline_file_bytes(&scans, [s], 0)).collect();
        for c in (0..n).filter(|&c| workers[c] == 1) {
            let sole_reader = |p: &usize| match edges.readers[*p][..] {
                [Reader { stage: Some(r), .. }] => r == c,
                _ => false,
            };
            let inputs = edges.dag.stages[c].inputs();
            let candidates: Vec<usize> =
                inputs.into_iter().filter(|&p| workers[p] == 1).filter(sole_reader).collect();
            let rank = |&p: &usize| (depth[p], est.get(p).copied(), std::cmp::Reverse(p));
            let host = candidates.iter().copied().max_by_key(rank);
            if let Some(h) = host {
                placement[h] = Placement::Fused;
                depth[c] = depth[h] + 1;
                carried[c] += carried[h];
                let scan = |p: &usize| edges.dag.stages[*p].inputs().is_empty();
                for p in candidates.into_iter().filter(|&p| p != h).filter(scan) {
                    if carried[c] + carried[p] <= invoke::inline_file_budget(1) {
                        placement[p] = Placement::CoHosted;
                        carried[c] += carried[p];
                    }
                }
            }
        }
        let mut launch = LaunchPlan {
            edges,
            pins,
            workers,
            partitions: vec![0; n],
            placement,
            inline_budgets: vec![u64::MAX; n],
            scans,
            est,
        };
        // A chain head's payload carries its chain's co-hosted inline files
        // beside its in-edges' inline sections.
        let carries = |c: usize| inline_file_bytes(&launch.scans, launch.chain(c), 0) as usize;
        let beside: Vec<usize> =
            (0..n).map(|c| if launch.is_chain_head(c) { carries(c) } else { 0 }).collect();
        let (edges, workers) = (&launch.edges, &launch.workers);
        for (pid, readers) in edges.readers.iter().enumerate() {
            for reader in readers {
                let Some(consumer) = reader.stage else { continue };
                launch.partitions[pid] = workers[consumer];
                let senders = edges.dag.stages[consumer].inputs().iter().map(|&i| workers[i]).sum();
                let fleet = workers[consumer];
                let mut share = crate::transport::inline_budget(senders, fleet, beside[consumer]);
                if let (ReaderRole::SortInput, StageKind::Sort(s)) =
                    (reader.role, &edges.dag.stages[consumer])
                {
                    let keys = s.keys.len();
                    share = crate::transport::block_budget(senders, fleet, keys, beside[consumer]);
                }
                launch.inline_budgets[pid] = launch.inline_budgets[pid].min(share);
            }
        }
        launch
    }

    /// The sort stage that reads `sid`'s out-edge, if one does: its fleet
    /// ships its runs with that stage's keys, limit and schema. The edge
    /// pass gives a producer at most one sort reader (`V-EXCH-003`).
    pub fn sort_reader(&self, sid: usize) -> Option<&'a SortStage> {
        let dag = self.edges.dag;
        self.edges.readers[sid].iter().find_map(|r| {
            match (r.role, r.stage.map(|c| &dag.stages[c])) {
                (ReaderRole::SortInput, Some(StageKind::Sort(s))) => Some(s),
                _ => None,
            }
        })
    }

    /// The stage `sid` hands its parts to in memory — its one reader —
    /// if its out-edge is fused or co-hosted.
    fn handed_to(&self, sid: usize) -> Option<usize> {
        match self.edges.readers[sid][..] {
            [Reader { stage: Some(c), .. }] if self.placement[sid] != Placement::Apart => Some(c),
            _ => None,
        }
    }

    /// The stage that reads `sid`'s fused out-edge, if it is fused.
    pub(crate) fn fused_into(&self, sid: usize) -> Option<usize> {
        self.handed_to(sid).filter(|_| self.placement[sid] == Placement::Fused)
    }

    /// Whether `sid` runs after its host but reads an edge that is
    /// neither fused nor co-hosted too: its host's invocation waits for
    /// that edge's reports in `sid`'s inbox.
    pub(crate) fn waits(&self, sid: usize) -> bool {
        let inputs = self.edges.dag.stages[sid].inputs();
        !self.is_chain_head(sid) && inputs.iter().any(|&p| self.placement[p] == Placement::Apart)
    }

    /// Whether `sid` runs in an invocation of its own fleet — it is
    /// neither co-hosted nor a fused edge's reader — rather than in its
    /// host's.
    pub(crate) fn is_chain_head(&self, sid: usize) -> bool {
        let inputs = self.edges.dag.stages[sid].inputs();
        self.placement[sid] != Placement::CoHosted
            && !inputs.iter().any(|&p| self.placement[p] == Placement::Fused)
    }

    /// Whether `sid`'s out-edge may go through the transport: it is not
    /// handed on, or it is fused into a reader that waits — then the host
    /// may ship its part after all.
    pub(crate) fn ships(&self, sid: usize) -> bool {
        self.handed_to(sid).is_none_or(|c| self.placement[sid] == Placement::Fused && self.waits(c))
    }

    /// The stages one invocation of `head`'s fleet runs: `head`, then
    /// every stage fused after it, in order — each the host of the next —
    /// with each member's co-hosted scans listed just before it.
    pub fn chain(&self, head: usize) -> Vec<usize> {
        let members = std::iter::successors(Some(head), |&sid| self.fused_into(sid));
        let cohosted = |sid: usize| {
            let inputs = self.edges.dag.stages[sid].inputs().into_iter();
            inputs.filter(|&p| self.placement[p] == Placement::CoHosted)
        };
        members.flat_map(|sid| cohosted(sid).chain([sid])).collect()
    }

    /// How stage `sid` takes its inputs inside its chain's invocation:
    /// the slot, among its reader's in-edges, that the parts handed on in
    /// memory fill — a co-hosted scan's own at its reader, a member's
    /// host's at the member, 0 for neither — and, for a stage that waits,
    /// the slot of its one other in-edge (`V-FLEET-005`) and that edge's
    /// sender count, which its inbox expects one report each from.
    pub(crate) fn handoff(&self, sid: usize) -> (usize, Option<(usize, usize)>) {
        let inputs = self.edges.dag.stages[sid].inputs();
        let (part, reader) = match self.handed_to(sid) {
            Some(c) if self.placement[sid] == Placement::CoHosted => (Some(sid), c),
            _ => (inputs.iter().copied().find(|&p| self.fused_into(p) == Some(sid)), sid),
        };
        let at = |p: usize| self.edges.dag.stages[reader].inputs().iter().position(|&i| i == p);
        let slot = part.and_then(at).unwrap_or_default();
        let apart = inputs.iter().position(|&i| self.placement[i] == Placement::Apart);
        let inbox = apart.filter(|_| self.waits(sid)).map(|at| (at, self.workers[inputs[at]]));
        (slot, inbox)
    }
}

/// The inline file bytes worker `w`'s invocation running `stages`
/// carries: each scan among them rides its payload with its `w`-th run of
/// files — its only one, at worker 0 of a scan of one worker, as every
/// scan in a chain is.
pub(crate) fn inline_file_bytes(
    scans: &[Option<Rc<ScanFiles>>],
    stages: impl IntoIterator<Item = usize>,
    w: u64,
) -> u64 {
    let files = stages.into_iter().filter_map(|s| scans[s].as_ref()).flat_map(|f| f.files(w));
    files.map(TableFile::inline_bytes).sum()
}

pub(crate) fn unknown_table(name: &str) -> CoreError {
    CoreError::Unsupported(format!("unknown table {name}"))
}

/// Optimize and lower a logical plan into the stage DAG `config`'s
/// installation runs, the optimizer's join order informed by the
/// `tables`' row counts.
pub fn lower(plan: &LogicalPlan, tables: &Tables, config: &LambadaConfig) -> Result<QueryDag> {
    let hints = tables.iter().map(|(k, v)| (k.clone(), v.total_rows)).collect();
    let optimized = Optimizer::with_row_hints(hints).optimize(plan)?;
    let opts = SplitOptions {
        exchange_aggregates: matches!(config.agg, AggStrategy::Exchange { .. }),
        exchange_sorts: matches!(config.sort, SortStrategy::Exchange { .. }),
    };
    crate::stage::split_with(&optimized, &opts)
}

/// Verify `dag` and fix everything about its fleets that is known
/// before the first invocation — the [`LaunchPlan`]: the structural
/// contracts first ([`crate::verify::checked_edges`]), then one sizing
/// pass over the stages, then the plan's invariants (fleets, placements
/// and payloads). Every consumer fleet's size doubles as the partition
/// count of the exchange edges feeding it, so fixing all sizes up front
/// is what lets independent stages launch together: a producer can shard
/// its output for a consumer fleet that does not exist yet.
///
/// Sizing: a scan fleet follows its file sizes — a worker per
/// connections' round of latency-bound files, one per larger file — or
/// is `ceil(#files / F)` under a pinned F (§5.2). Once the consumer
/// fleets are sized, a packed scan of several workers whose only reader
/// runs one worker is priced against folding into one worker in that
/// reader's invocation (the fold, from predicted spans; see
/// `fold_scans`); a pinned F is never folded. A consumer fleet (join,
/// agg-merge, sort) is sized per stage by
/// [`crate::ComputeCostModel::consumer_workers`] from the bytes it takes
/// in — a join's two inputs together, an agg-merge fleet's states, a
/// sort's input — the resource-allocation trade-off of Kassing et al.
/// applied at every level of the DAG, unless the installation pins it.
/// `fleet_cap` (contention shrinking under the query service) clamps
/// model-sized fleets and scan fleets; explicitly pinned fleets stay
/// pinned. The byte estimates run bottom-up: table bytes scaled by the
/// fraction of surviving columns for scans, the variant-aware
/// [`crate::ComputeCostModel::join_output_bytes`] for joins, an 8:1
/// pre-aggregation compaction for agg-merge fleets, pass-through for
/// sorts.
pub fn launch_plan<'a>(
    dag: &'a QueryDag,
    tables: &Tables,
    config: &LambadaConfig,
    cloud: &CloudConfig,
    fleet_cap: Option<usize>,
) -> Result<LaunchPlan<'a>> {
    let edges = verify::checked_edges(dag).map_err(CoreError::InvalidPlan)?;
    let costs = &config.costs;
    let budget = u64::from(config.memory_mib) * 1024 * 1024;
    let packing = match config.files_per_worker {
        Some(f) => Packing::Pinned(f),
        None => Packing::BySize {
            latency_bound: crate::scan::latency_bound_bytes(&config.scan, cloud),
            connections: config.scan.connections,
        },
    };
    // Pinned fleets stay pinned; model-sized ones shrink to the cap.
    let sized = |pin: Option<usize>, model: usize| match (pin, fleet_cap) {
        (Some(pinned), _) => pinned.max(1),
        (None, Some(cap)) => model.min(cap.max(1)).max(1),
        (None, None) => model,
    };
    let n = dag.stages.len();
    let mut pins = Vec::with_capacity(n);
    let mut est: Vec<u64> = Vec::with_capacity(n);
    let mut workers = Vec::with_capacity(n);
    let mut scans = Vec::with_capacity(n);
    for kind in &dag.stages {
        let (pin, bytes, fleet, scan) = match kind {
            StageKind::Scan(scan) => {
                let table =
                    Rc::clone(tables.get(&scan.table).ok_or_else(|| unknown_table(&scan.table))?);
                let chunks = scan_chunks(&table.files, packing, fleet_cap);
                // Crude column-selectivity estimate: exchanged bytes
                // scale with the fraction of columns that survive.
                let frac = scan.scan_columns.len() as f64 / table.schema.len().max(1) as f64;
                let bytes = (table.total_bytes() as f64 * frac) as u64;
                let files = ScanFiles { table, chunks, config: config.scan };
                (None, bytes, files.chunks.len(), Some(Rc::new(files)))
            }
            StageKind::Join(j) => {
                let (probe, build) = (est[j.probe_input], est[j.build_input]);
                let pin = config.join_workers;
                let bytes = costs.join_output_bytes(j.variant, probe, build);
                let fleet = sized(pin, costs.consumer_workers(probe.saturating_add(build), budget));
                (pin, bytes, fleet, None)
            }
            StageKind::AggMerge(a) => {
                let pin = match config.agg {
                    AggStrategy::Exchange { workers } => workers,
                    AggStrategy::DriverMerge => None,
                };
                let states = est[a.input] / 8;
                (pin, states, sized(pin, costs.consumer_workers(states, budget)), None)
            }
            StageKind::Sort(s) => {
                let pin = match config.sort {
                    SortStrategy::Exchange { workers } => workers,
                    SortStrategy::Driver => None,
                };
                let input = est[s.input];
                (pin, input, sized(pin, costs.consumer_workers(input, budget)), None)
            }
        };
        pins.push(pin);
        est.push(bytes);
        workers.push(fleet);
        scans.push(scan);
    }
    if matches!(packing, Packing::BySize { .. }) {
        let rates = Rates::new(cloud, config.memory_mib, *costs, config.scan.connections);
        fold_scans(&edges, &pins, &est, &rates, config, &mut workers, &mut scans);
    }
    let launch = LaunchPlan::wire(edges, pins, workers, est, scans);
    let mut diags = verify::verify_fleets(&launch.edges, &launch.workers, &launch.pins);
    diags.extend(verify::verify_fused(&launch.edges, &launch.workers, &launch.placement));
    diags.extend(verify::verify_payloads(&launch));
    if !diags.is_empty() {
        return Err(CoreError::InvalidPlan(diags));
    }
    Ok(launch)
}

/// Price each scan's width against its crossing: a scan of several
/// workers, packed by size, whose only reader runs one worker becomes one
/// worker over all its files — which [`LaunchPlan::wire`] then places in
/// that reader's invocation, as its host or co-hosted — when three things
/// hold. Its predicted span there, one run over all its files with the
/// bytes of the invocation's other scans on the same link, is no longer
/// than apart: its slowest packed run plus the crossing to its reader
/// ([`Rates`]). Its files fit the usable quarter of one worker's memory
/// ([`crate::ComputeCostModel::consumer_workers`] of one). And the wired
/// plan's every invocation still fits the platform's caps
/// ([`crate::verify::verify_payloads`]). Scans are decided in stage order,
/// so a later one sees the earlier folds beside it.
fn fold_scans(
    edges: &EdgeTable<'_>,
    pins: &[Option<usize>],
    est: &[u64],
    rates: &Rates,
    config: &LambadaConfig,
    workers: &mut Vec<usize>,
    scans: &mut Vec<Option<Rc<ScanFiles>>>,
) {
    let wire = |workers: &[usize], scans: &[Option<Rc<ScanFiles>>]| {
        let (pins, est) = (pins.to_vec(), est.to_vec());
        LaunchPlan::wire(edges.clone(), pins, workers.to_vec(), est, scans.to_vec())
    };
    let budget = u64::from(config.memory_mib) * 1024 * 1024;
    for p in 0..workers.len() {
        let (StageKind::Scan(scan), Some(files), [Reader { stage: Some(c), .. }]) =
            (&edges.dag.stages[p], &scans[p], &edges.readers[p][..])
        else {
            continue;
        };
        let (table, runs) = (&files.table, &files.chunks);
        let fits_one = config.costs.consumer_workers(table.total_bytes(), budget) <= 1;
        if runs.len() < 2 || workers[*c] != 1 || !fits_one {
            continue;
        }
        let (mut folded_workers, mut folded_scans) = (workers.clone(), scans.clone());
        folded_workers[p] = 1;
        let chunks = dealt(0..table.files.len(), 1).collect();
        let one_run = ScanFiles { table: Rc::clone(table), chunks, config: files.config };
        folded_scans[p] = Some(Rc::new(one_run));
        let folded = wire(&folded_workers, &folded_scans);
        // A plan past the platform's caps has no invocation to fold into.
        let fits = verify::verify_payloads(&folded).is_empty();
        let heads = (0..workers.len()).filter(|&h| fits && folded.is_chain_head(h));
        let Some(invocation) = heads.map(|h| folded.chain(h)).find(|s| s.contains(&p)) else {
            continue;
        };
        let files = |s: &usize| folded_scans[*s].as_ref().map(|f| &f.table.files[..]);
        let beside = invocation.iter().filter(|&&s| s != p).filter_map(files).flatten();
        let beside: u64 = beside.map(|f| f.size - f.inline_bytes()).sum();
        let total = table.total_bytes().max(1) as f64;
        let work = ScanWork {
            scanned: scan.scan_columns.len() as f64 / table.schema.len().max(1) as f64,
            rows_per_byte: table.total_rows as f64 / total,
        };
        let slowest = runs.iter().map(|r| rates.scan(&table.files[r.clone()], work, 0));
        let budgets = wire(workers, scans).inline_budgets;
        let apart = slowest.fold(0.0, f64::max) + rates.crossing(est[p], runs.len(), budgets[p]);
        if rates.scan(&table.files, work, beside) <= apart {
            (*workers, *scans) = (folded_workers, folded_scans);
        }
    }
}

/// How a scan's files are dealt to its workers.
#[derive(Clone, Copy, Debug)]
enum Packing {
    /// F files per worker (§5.2).
    Pinned(usize),
    /// Consecutive files of at most `latency_bound` bytes share workers,
    /// at most `connections` to one; a larger file gets a worker of its own.
    BySize { latency_bound: u64, connections: usize },
}

/// A scan fleet: each worker's run of the table's files, contiguous and in
/// order. Pinned, this is §5.2's `W = ceil(#files / F)`. By size, a run of
/// `L` consecutive latency-bound files goes to `ceil(L / connections)`
/// workers, dealt evenly: each such file is one GET ([`crate::scan`]) and
/// a worker reads its files at once, so its run costs one round of
/// first-byte latency where as many workers would cost as many
/// invocations and billing quanta. When the policy's fleet cap binds, the
/// files are dealt evenly to `cap` workers. Inline files ride their
/// worker's payload: last, any run of several files whose inline bytes
/// exceed the fleet's [`invoke::inline_file_budget`] is halved, the cap
/// notwithstanding, until every such run fits, so no payload is refused.
/// [`launch_plan`] is the one caller: the chunks it hands the payload
/// builder and the worker count that fixes exchange sender counts come
/// from the same call — or, for a packed scan the launch plan folds into
/// its one-worker reader's invocation, from the one run of every file
/// that replaces them — so the planned count always equals the number of
/// payloads built. The packing here knows nothing of the scan's reader;
/// the fold is where the width is priced against the crossing.
fn scan_chunks(files: &[TableFile], packing: Packing, cap: Option<usize>) -> Vec<Range<usize>> {
    let n = files.len();
    let chunks: Vec<Range<usize>> = match packing {
        Packing::Pinned(f) => (0..n).step_by(f.max(1)).map(|s| s..(s + f.max(1)).min(n)).collect(),
        Packing::BySize { latency_bound, connections } => {
            let large = |i: &usize| files[*i].size > latency_bound;
            let mut chunks = Vec::new();
            let mut start = 0;
            while start < n {
                let end =
                    if large(&start) { start + 1 } else { (start..n).find(large).unwrap_or(n) };
                chunks.extend(dealt(start..end, (end - start).div_ceil(connections.max(1))));
                start = end;
            }
            chunks
        }
    };
    let mut chunks = match cap {
        Some(cap) if chunks.len() > cap.max(1) => dealt(0..n, cap.max(1)).collect(),
        _ => chunks,
    };
    let inline = |c: &Range<usize>| files[c.clone()].iter().map(|f| f.inline_bytes()).sum::<u64>();
    while let Some(i) = chunks
        .iter()
        .position(|c| c.len() > 1 && inline(c) > invoke::inline_file_budget(chunks.len()))
    {
        let c = chunks.remove(i);
        let mid = c.start + c.len() / 2;
        chunks.splice(i..i, [c.start..mid, mid..c.end]);
    }
    chunks
}

/// `files` dealt to `workers` contiguous runs whose lengths differ by at
/// most one.
fn dealt(files: Range<usize>, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let (start, n) = (files.start, files.len());
    (0..workers).map(move |w| start + w * n / workers..start + (w + 1) * n / workers)
}

#[cfg(test)]
mod tests {
    //! The planner's choices, planned without a cloud: every test here
    //! reads a [`LaunchPlan`] built from tables, a config and the default
    //! [`CloudConfig`] alone.

    use super::*;
    use crate::invoke::{choose_strategy, InvocationStrategy};
    use crate::message::INLINE_EDGE_BYTES;
    use crate::transport::ADDRESS_BYTES;
    use lambada_engine::logical::SortKey;
    use lambada_engine::types::{DataType, Field, Schema};
    use lambada_engine::{AggExpr, AggFunc, Df};
    use lambada_sim::region::Region;
    use lambada_sim::services::object_store::Body;

    fn register(tables: &mut Tables, spec: TableSpec) {
        tables.insert(spec.name.clone(), Rc::new(spec));
    }

    /// A real file of `size` bytes.
    fn file_of(size: u64) -> TableFile {
        TableFile::real("data", "f", size)
    }

    /// Latency-bound files are dealt evenly, a round of connections to a
    /// worker; a larger file gets a worker of its own and splits the runs
    /// around it. A pin is §5.2's chunking, and a binding fleet cap deals
    /// every file evenly.
    #[test]
    fn scan_fleets_follow_file_sizes() {
        let by_size = Packing::BySize { latency_bound: 100, connections: 4 };
        let chunks = |sizes: &[u64], packing, cap| {
            scan_chunks(&sizes.iter().map(|&s| file_of(s)).collect::<Vec<_>>(), packing, cap)
        };
        let lens = |c: Vec<Range<usize>>| c.iter().map(|r| r.len()).collect::<Vec<_>>();
        assert_eq!(chunks(&[10; 8], by_size, None), vec![0..4, 4..8]);
        assert_eq!(lens(chunks(&[10; 6], by_size, None)), vec![3, 3], "not 4 + 2");
        assert_eq!(lens(chunks(&[10; 5], by_size, None)), vec![2, 3]);
        assert_eq!(chunks(&[10, 10, 101, 10, 100], by_size, None), vec![0..2, 2..3, 3..5]);
        assert_eq!(chunks(&[500; 3], by_size, None), vec![0..1, 1..2, 2..3]);
        assert_eq!(chunks(&[], by_size, None), Vec::<Range<usize>>::new(), "no file, no worker");
        assert_eq!(chunks(&[10; 7], Packing::Pinned(3), None), vec![0..3, 3..6, 6..7]);
        assert_eq!(lens(chunks(&[500; 10], by_size, Some(4))), vec![2, 3, 2, 3]);
        assert_eq!(chunks(&[10; 8], by_size, Some(2)), vec![0..4, 4..8], "the cap does not bind");
    }

    /// `n` inline files of `size` bytes each.
    fn inline_files(n: usize, size: usize) -> Vec<TableFile> {
        let body = |i: usize| Body::from_vec(vec![i as u8; size]);
        (0..n).map(|i| TableFile::inline(format!("b/p{i}"), body(i))).collect()
    }

    /// Inline files pack as stored ones do while a worker's files fit the
    /// fleet's inline budget; past it a run is halved until every run of
    /// several files fits — also against a binding fleet cap, which then
    /// does not hold — so no payload, first-generation ones included, is
    /// over the invoke cap.
    #[test]
    fn inline_files_pack_within_the_payload_budget() {
        let by_size = Packing::BySize { latency_bound: 1 << 20, connections: 4 };
        let fits = |files: &[TableFile], chunks: &[Range<usize>]| {
            let budget = invoke::inline_file_budget(chunks.len());
            let bytes =
                |c: &Range<usize>| files[c.clone()].iter().map(|f| f.inline_bytes()).sum::<u64>();
            chunks.iter().all(|c| bytes(c) <= budget)
        };
        let small = inline_files(8, 1_000);
        assert_eq!(scan_chunks(&small, by_size, None), vec![0..4, 4..8], "today's packing");
        // Four 40 KB files to each of four workers would be 160 KB a
        // worker, past a two-worker tree group's share (126 KB): two each.
        let large = inline_files(16, 40_000);
        let chunks = scan_chunks(&large, by_size, None);
        assert_eq!(chunks, (0..8).map(|w| 2 * w..2 * w + 2).collect::<Vec<_>>());
        assert!(fits(&large, &chunks));
        let capped = scan_chunks(&large, by_size, Some(2));
        assert!(capped.len() > 2 && fits(&large, &capped), "past the cap: {capped:?}");
        // 400 files of 8 KB: four to a worker would be 100 workers of
        // 32 KB, past a tree group's share of the budget (25.2 KB), so the
        // fleet launches at two to a worker, and every tree group's
        // first-generation payload holds at most the budget.
        let many = inline_files(400, 8_000);
        let chunks = scan_chunks(&many, by_size, None);
        assert_eq!(chunks.len(), 200);
        assert_eq!(choose_strategy(Region::Eu, chunks.len()), InvocationStrategy::TwoLevel);
        assert!(fits(&many, &chunks));
        // The launched group is at most the budgeted one, and the heaviest
        // runs of that many — whichever the tree deals to one payload —
        // hold at most the budget together.
        let group = invoke::tree_shape(chunks.len()).1;
        assert!(invoke::launch_shape(Region::Eu, chunks.len()).1 <= group);
        let bytes =
            |c: &Range<usize>| many[c.clone()].iter().map(|f| f.inline_bytes()).sum::<u64>();
        let mut runs: Vec<u64> = chunks.iter().map(bytes).collect();
        runs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(runs[..group].iter().sum::<u64>() <= INLINE_EDGE_BYTES as u64);
    }

    /// A one-worker join fed by two wide fleets hosts a second join beside
    /// a co-hosted scan of inline files: the host's payload carries the
    /// scan's files beside its in-edges' inline sections, so those edges'
    /// budgets leave room for the files, and the largest payload the
    /// budgets allow stays within the invoke cap.
    #[test]
    fn a_head_s_edge_budgets_leave_room_for_its_cohosted_inline_files() {
        let config = LambadaConfig { join_workers: Some(1), ..LambadaConfig::default() };
        let mut tables = Tables::new();
        let field = |name: &str| Field::new(name, DataType::Int64);
        let (u, v, s) = (
            Schema::new(vec![field("a"), field("x")]),
            Schema::new(vec![field("b"), field("y")]),
            Schema::new(vec![field("c"), field("z")]),
        );
        for (name, schema) in [("u", &u), ("v", &v)] {
            let files = (0..8).map(|f| TableFile::real("data", format!("{name}/{f}"), 1 << 30));
            register(&mut tables, TableSpec::new(name, schema.clone(), files.collect(), 1 << 20));
        }
        let stream = inline_files(2, 60_000);
        register(&mut tables, TableSpec::new("s", s.clone(), stream, 100));
        let inner = Df::scan("u", &u).join(Df::scan("v", &v), &[("a", "b")]).unwrap();
        let query = inner.join(Df::scan("s", &s), &[("a", "c")]).unwrap();
        let dag = lower(&query.build(), &tables, &config).unwrap();
        let launch = launch_plan(&dag, &tables, &config, &CloudConfig::default(), None).unwrap();
        let sid = |table: &str| {
            let scan = |k: &StageKind| matches!(k, StageKind::Scan(s) if s.table == table);
            dag.stages.iter().position(scan).unwrap()
        };
        assert_eq!(launch.placement[sid("s")], Placement::CoHosted);
        let host = (0..dag.stages.len())
            .find(|&j| matches!(dag.stages[j], StageKind::Join(_)) && launch.is_chain_head(j))
            .unwrap();
        assert!(launch.chain(host).contains(&sid("s")));
        let senders = launch.workers[sid("u")] + launch.workers[sid("v")];
        assert_eq!(senders, 16);
        let files = 120_000;
        for p in [sid("u"), sid("v")] {
            assert_eq!(
                launch.inline_budgets[p],
                crate::transport::inline_budget(senders, 1, files)
            );
            assert!(launch.inline_budgets[p] < crate::transport::inline_budget(senders, 1, 0));
        }
        let most = senders * (launch.inline_budgets[sid("u")] as usize + ADDRESS_BYTES) + files;
        assert!(most <= INLINE_EDGE_BYTES, "{most}");
    }

    /// A scan of eight inline files on two workers, read by a one-worker
    /// join: apart, each sender's share is past its inline budget, so the
    /// crossing costs a PUT and a GET and one worker beside the join is
    /// predicted faster. Eight files of 25 KB fold into the join's
    /// invocation; eight of 40 KB would put 320 KB of files in its
    /// payload, past the cap, and keep their two workers.
    #[test]
    fn a_fold_past_the_payload_cap_does_not_happen() {
        let field = |name: &str| Field::new(name, DataType::Int64);
        let (s, u) = (Schema::new(vec![field("a"), field("x")]), Schema::new(vec![field("b")]));
        for (size, folds) in [(25_000, true), (40_000, false)] {
            let config = LambadaConfig { join_workers: Some(1), ..LambadaConfig::default() };
            let mut tables = Tables::new();
            register(&mut tables, TableSpec::new("s", s.clone(), inline_files(8, size), 8_000));
            let stored = vec![TableFile::real("data", "u/0", 1_000)];
            register(&mut tables, TableSpec::new("u", u.clone(), stored, 100));
            let query = Df::scan("s", &s).join(Df::scan("u", &u), &[("a", "b")]).unwrap();
            let dag = lower(&query.build(), &tables, &config).unwrap();
            let cloud = CloudConfig::default();
            let launch = launch_plan(&dag, &tables, &config, &cloud, None).unwrap();
            let scan = |k: &StageKind| matches!(k, StageKind::Scan(t) if t.table == "s");
            let sid = dag.stages.iter().position(scan).unwrap();
            assert_eq!(launch.workers[sid], if folds { 1 } else { 2 }, "{size} B files");
            assert_eq!(launch.placement[sid] == Placement::Apart, !folds, "{size} B files");
        }
    }

    /// Consumer fleets are sized from the bytes they take in, and an
    /// agg-merge fleet takes in states: its input compacted 8:1. Over a
    /// 16 GiB scan at 2 GiB (512 MiB usable per worker) the merge fleet
    /// holds 2 GiB of states, 4 workers, where a sort of the same scan
    /// gets 32; a sort of the merged states gets the merge fleet's 4.
    #[test]
    fn an_agg_merge_fleet_is_sized_from_its_compacted_states() {
        let config = LambadaConfig {
            agg: AggStrategy::Exchange { workers: None },
            sort: SortStrategy::Exchange { workers: None },
            ..LambadaConfig::default()
        };
        let mut tables = Tables::new();
        let schema =
            Schema::new(vec![Field::new("g", DataType::Int64), Field::new("v", DataType::Int64)]);
        let files = (0..16).map(|i| TableFile::real("data", format!("t/{i}"), 1 << 30)).collect();
        register(&mut tables, TableSpec::new("t", schema.clone(), files, 1 << 30));
        let fleets = |plan: Df| {
            let dag = lower(&plan.build(), &tables, &config).unwrap();
            launch_plan(&dag, &tables, &config, &CloudConfig::default(), None).unwrap().workers
        };
        let g = || lambada_engine::col(0);
        let sum_v = vec![AggExpr::new(AggFunc::Sum, Some(lambada_engine::col(1)), "s")];
        let agg = Df::scan("t", &schema).aggregate(vec![(g(), "g")], sum_v).unwrap();
        assert_eq!(fleets(agg.clone()), vec![16, 4], "scan, agg-merge");
        let sorted = Df::scan("t", &schema).sort(vec![SortKey::asc(g())]).unwrap();
        assert_eq!(fleets(sorted), vec![16, 32], "scan, sort");
        let merged_sorted = agg.sort(vec![SortKey::asc(g())]).unwrap();
        assert_eq!(fleets(merged_sorted), vec![16, 4, 4], "scan, agg-merge, sort");
    }

    /// A plan wired by hand past the co-host fit: a one-worker scan of a
    /// 150 KB inline file hosts a join beside another such scan co-hosted,
    /// so one payload carries 300 KB of files, past the 256 KiB invoke
    /// cap. `V-FLEET-006` rejects it, at the chain head; with the second
    /// scan apart, each invocation carries its own file and fits.
    #[test]
    fn a_hand_wired_cohost_past_the_invoke_cap_is_rejected() {
        use crate::verify::{codes, test_dags};
        let dag = test_dags::two_scan_join_dag();
        let mut launch = test_dags::sized(&dag, vec![1; 3]);
        assert_eq!(launch.placement, [Placement::Fused, Placement::CoHosted, Placement::Apart]);
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
        for s in 0..2 {
            let table = Rc::new(TableSpec::new("t", schema.clone(), inline_files(1, 150_000), 1));
            let chunks = dealt(0..1, 1).collect();
            let files = ScanFiles { table, chunks, config: Default::default() };
            launch.scans[s] = Some(Rc::new(files));
        }
        let diags = verify::verify_payloads(&launch);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].code, diags[0].stage), (codes::FLEET_PAYLOAD, Some(0)));
        assert!(diags[0].message.contains("300000 B"), "{}", diags[0].message);
        launch.placement[1] = Placement::Apart;
        assert_eq!(verify::verify_payloads(&launch), Vec::new());
    }
}
