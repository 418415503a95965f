//! Correctness checks. Every op's result is compared, outside the timed
//! interval, with what the single-node reference executor
//! (`engine::physical::execute_into_batch`) computes from the same
//! generated columns.

use std::rc::Rc;
use std::sync::Arc;

use lambada::core::stage::{QueryDag, StageKind};
use lambada::core::{events_to_batch, QueryReport, ScanConfig, TableSpec, WINDOW_COLUMN};
use lambada::engine::expr::range::can_match;
use lambada::engine::{
    assign_windows, execute_into_batch, Catalog, Column, LogicalPlan, MemTable, Optimizer,
    RecordBatch, WindowSpec,
};
use lambada::sim::{Prices, SourceConfig, SourceEvent};

use crate::workload::Generated;

/// The comparison rule of `tests/distributed_query.rs`: shapes, integers
/// and row order exact, floats within 1e-6 relative.
pub fn batches_match(got: &RecordBatch, want: &RecordBatch) -> Result<(), String> {
    if got.num_rows() != want.num_rows() || got.num_columns() != want.num_columns() {
        return Err(format!(
            "shape {}x{} differs from the reference's {}x{}",
            got.num_rows(),
            got.num_columns(),
            want.num_rows(),
            want.num_columns()
        ));
    }
    for (c, (a, b)) in got.columns().iter().zip(want.columns()).enumerate() {
        match (a, b) {
            (Column::F64(a), Column::F64(b)) => {
                for (row, (p, q)) in a.iter().zip(b).enumerate() {
                    // False for NaN, as in the rule it copies.
                    let close = (p - q).abs() <= 1e-6 * p.abs().max(1.0);
                    if !close {
                        return Err(format!("row {row} column {c}: {p} vs reference {q}"));
                    }
                }
            }
            (a, b) if a == b => {}
            _ => return Err(format!("column {c} differs from the reference")),
        }
    }
    Ok(())
}

/// Run each plan through the reference executor over the generated
/// tables. Returns the results and the input rows one pass reads; both
/// are empty for a workload without real tables, which has an oracle of
/// its own.
pub fn reference_results(tables: &[Generated], plans: &[LogicalPlan]) -> (Vec<RecordBatch>, u64) {
    if tables.is_empty() {
        return (Vec::new(), 0);
    }
    let mut catalog = Catalog::new();
    let mut rows = 0;
    for t in tables {
        let schema = Arc::new(t.schema.clone());
        let batches = t
            .files
            .iter()
            .map(|cols| RecordBatch::new(Arc::clone(&schema), cols.clone()).expect("generated"))
            .collect();
        catalog.register(t.name, Rc::new(MemTable::new(schema, batches).expect("one schema")));
        rows += t.rows;
    }
    let results = plans
        .iter()
        .map(|plan| {
            let optimized = Optimizer::new().optimize(plan).expect("workload plan optimizes");
            execute_into_batch(&optimized, &catalog).expect("reference executes")
        })
        .collect();
    (results, rows * plans.len() as u64)
}

/// Batch reference of the streaming workload, computed in bounded
/// memory. It replays the runtime's late/watermark fold to find the kept
/// events, and runs the reference executor over every window no future
/// event can still reach: the source never displaces an event more than
/// `max_delay` behind its monotone base timeline, so once the base has
/// passed `w + size + max_delay`, window `w` is complete. Windows are
/// disjoint and ascending, so the chunks concatenate to exactly what one
/// pass over the whole kept stream returns.
pub struct StreamOracle {
    window: WindowSpec,
    lateness: i64,
    source: SourceConfig,
    plan: fn(&str) -> LogicalPlan,
    watermark: i64,
    max_ts: i64,
    seen: u64,
    pending: Vec<SourceEvent>,
    chunks: Vec<RecordBatch>,
}

/// Batches folded between reference passes.
const ORACLE_CHUNK_EVENTS: usize = 400_000;

impl StreamOracle {
    pub fn new(
        window: WindowSpec,
        lateness: i64,
        source: SourceConfig,
        plan: fn(&str) -> LogicalPlan,
    ) -> StreamOracle {
        assert!(window.slide == window.size, "the chunked reference needs tumbling windows");
        assert!(source.late_probability == 0.0, "the completeness bound needs in-bound disorder");
        StreamOracle {
            window,
            lateness,
            source,
            plan,
            watermark: i64::MIN,
            max_ts: i64::MIN,
            seen: 0,
            pending: Vec::new(),
            chunks: Vec::new(),
        }
    }

    pub fn push(&mut self, events: &[SourceEvent]) {
        self.seen += events.len() as u64;
        for e in events {
            // Older than the watermark: late, dropped by the runtime too.
            if e.ts >= self.watermark {
                self.pending.push(*e);
                self.max_ts = self.max_ts.max(e.ts);
            }
        }
        if self.max_ts > i64::MIN {
            self.watermark = self.max_ts.saturating_sub(self.lateness);
        }
        if self.pending.len() >= ORACLE_CHUNK_EVENTS {
            let next_base = (self.seen as f64 / self.source.events_per_tick) as i64;
            let reach = next_base - self.source.max_delay;
            self.reference_before(reach - reach.rem_euclid(self.window.size));
        }
    }

    /// Reference over the pending events of windows starting before `cut`.
    fn reference_before(&mut self, cut: i64) {
        let window = self.window;
        let (closed, open): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|e| window.latest_start(e.ts) < cut);
        self.pending = open;
        if closed.is_empty() {
            return;
        }
        let windowed = assign_windows(
            &events_to_batch(&closed).expect("events columnize"),
            0,
            &self.window,
            WINDOW_COLUMN,
        )
        .expect("window assignment");
        let mut catalog = Catalog::new();
        catalog.register("stream_ref", Rc::new(MemTable::from_batch(windowed)));
        self.chunks
            .push(execute_into_batch(&(self.plan)("stream_ref"), &catalog).expect("reference"));
    }

    /// The reference over the whole kept stream.
    pub fn finish(mut self) -> RecordBatch {
        self.reference_before(i64::MAX);
        let schema = self.chunks.first().expect("a stream has events").schema().clone();
        RecordBatch::concat(schema, &self.chunks).expect("chunks share a schema")
    }
}

/// What the modeled workload's scan must do, in closed form from the
/// table descriptors: one worker per file, one footer GET per file, and
/// per surviving row group and scanned column one ranged GET per
/// `max_request_bytes`. Nothing is written or listed.
pub fn modeled_closed_form(table: &TableSpec, dag: &QueryDag, scan: &ScanConfig) -> (usize, u64) {
    let [StageKind::Scan(stage)] = dag.stages.as_slice() else {
        panic!("the modeled workload's queries are one-stage scans");
    };
    let mut gets = 0;
    for file in &table.files {
        let meta = file.meta.as_ref().expect("descriptor table");
        gets += 1;
        for rg in &meta.row_groups {
            if let Some(pred) = &stage.prune_predicate {
                if !can_match(pred, &|i| rg.columns.get(i).and_then(|c| c.stats)) {
                    continue;
                }
            }
            for &c in &stage.scan_columns {
                gets += rg.columns[c].compressed_len.div_ceil(scan.max_request_bytes);
            }
        }
    }
    (table.files.len(), gets)
}

pub fn check_modeled(report: &QueryReport, want: (usize, u64)) -> Result<(), String> {
    let stage = &report.stages[0];
    let got = (report.workers, stage.get_requests, stage.put_requests, stage.list_requests);
    if got == (want.0, want.1, 0, 0) {
        Ok(())
    } else {
        Err(format!(
            "(workers, GET, PUT, LIST) = {got:?}, the closed form gives ({}, {}, 0, 0)",
            want.0, want.1
        ))
    }
}

/// What must repeat exactly when one op runs on two fresh clouds with
/// one seed: virtual span, dollars and request counts.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    span_bits: Vec<u64>,
    dollar_bits: Vec<u64>,
    requests: Vec<(u64, u64, u64)>,
}

impl Fingerprint {
    pub fn of(reports: &[QueryReport], prices: &Prices) -> Fingerprint {
        Fingerprint {
            span_bits: reports.iter().map(|r| r.span_secs.to_bits()).collect(),
            dollar_bits: reports.iter().map(|r| r.request_dollars(prices).to_bits()).collect(),
            requests: reports
                .iter()
                .map(|r| (r.s3_requests(), r.p2p_requests(), r.invocations()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ints: Vec<i64>, floats: Vec<f64>) -> RecordBatch {
        RecordBatch::from_columns(&["k", "v"], vec![Column::I64(ints), Column::F64(floats)])
            .unwrap()
    }

    #[test]
    fn floats_compare_within_tolerance_and_the_rest_exactly() {
        let want = batch(vec![1, 2], vec![1000.0, 0.5]);
        assert!(batches_match(&batch(vec![1, 2], vec![1000.0005, 0.5]), &want).is_ok());
        assert!(batches_match(&batch(vec![1, 2], vec![1000.01, 0.5]), &want).is_err());
        assert!(batches_match(&batch(vec![2, 1], vec![1000.0, 0.5]), &want).is_err());
        assert!(batches_match(&batch(vec![1], vec![1000.0]), &want).is_err());
    }
}
