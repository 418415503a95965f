//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! judged by the benchmark's own bounds. Each file is what `run --out`
//! wrote: an array of run documents (one per repetition) of one commit.

use crate::json::{self, Value};
use crate::metrics::{Better, Clock, END_TO_END, FAILED_SHARE};
use crate::stats;
use crate::workload::WORKLOADS;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The base's own run-to-run spread is wider than the bound, so the
    /// bound cannot be resolved: not the same as unchanged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` (medians). `spread` is the base's
/// quartile distance as a share of its median, `None` when too few runs
/// were made to know it; without it nothing can be called better.
pub fn judge(better: Better, bound: f64, base: f64, change: f64, spread: Option<f64>) -> Verdict {
    if base == 0.0 {
        return if change == 0.0 { Verdict::WithinBound } else { Verdict::Unresolved };
    }
    let worse_by = match better {
        Better::Lower => (change - base) / base,
        Better::Higher => (base - change) / base,
    };
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && spread.is_some_and(|s| -worse_by > s) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Values of one metric of one workload over a file's runs.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
        Value::Arr(runs) => Ok(runs),
        run @ Value::Obj(_) => Ok(vec![run]),
        _ => Err(format!("{path}: expected a run document or an array of them")),
    }
}

/// Median with quartiles, `[q1, q3]` only when the sample has them.
fn summary(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => {
            format!("{:.6} [{:.6}, {:.6}] n={}", stats::median(values), q1, q3, values.len())
        }
        None => format!("{:.6} n={}", stats::median(values), values.len()),
    }
}

pub fn compare(base_path: &str, change_path: &str) -> Result<String, String> {
    let (base, change) = (load(base_path)?, load(change_path)?);
    let mut out = format!(
        "base A = {base_path} ({} runs), change B = {change_path} ({} runs); ratio = B / A\n",
        base.len(),
        change.len()
    );
    out.push_str(&format!(
        "{:<20} {:<22} {:>6} {:>9}  {:<13} A median [q1, q3] | B median [q1, q3]\n",
        "workload", "metric", "bound", "ratio", "verdict"
    ));
    for w in &WORKLOADS {
        for m in END_TO_END {
            let (a, b) = (values(&base, w.name, m.name), values(&change, w.name, m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // The base's spread: across its runs when there are enough;
            // else 0 for a virtual-clock metric (it repeats exactly), and
            // for host time the quartile distance of the ops inside the
            // one run, which a traced run records.
            let spread = match stats::quartiles(&a) {
                Some((q1, q3)) if a.len() >= 4 && ma != 0.0 => Some((q3 - q1) / ma),
                _ if m.clock == Clock::Virtual => Some(0.0),
                _ if m.name == "host_ms_per_op" && ma != 0.0 => {
                    let iqr = values(&base, w.name, "core.driver.host_ms_iqr");
                    (!iqr.is_empty()).then(|| stats::median(&iqr) / ma)
                }
                _ => None,
            };
            let verdict = judge(m.better, m.bound, ma, mb, spread);
            out.push_str(&format!(
                "{:<20} {:<22} {:>5.0}% {:>9.4}  {:<13} {} {} | {}\n",
                w.name,
                m.name,
                m.bound * 100.0,
                if ma == 0.0 { f64::NAN } else { mb / ma },
                verdict.label(),
                m.unit,
                summary(&a),
                summary(&b),
            ));
        }
        // Any increase in failures is a regression, whatever else moved.
        let (a, b) = (values(&base, w.name, FAILED_SHARE), values(&change, w.name, FAILED_SHARE));
        if let (Some(fa), Some(fb)) =
            (a.iter().copied().reduce(f64::max), b.iter().copied().reduce(f64::max))
        {
            let verdict = if fb > fa { "worse" } else { "within bound" };
            out.push_str(&format!(
                "{:<20} {:<22} {:>6} {:>9}  {:<13} ratio {fa} | {fb}\n",
                w.name, FAILED_SHARE, "any", "", verdict
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(Lower, 0.10, 100.0, 105.0, Some(0.02)), Verdict::WithinBound);
        assert_eq!(judge(Lower, 0.10, 100.0, 111.0, Some(0.02)), Verdict::Worse);
        assert_eq!(judge(Lower, 0.10, 100.0, 90.0, Some(0.02)), Verdict::Better);
        assert_eq!(judge(Lower, 0.10, 100.0, 99.0, Some(0.02)), Verdict::WithinBound);
        assert_eq!(judge(Lower, 0.10, 100.0, 50.0, Some(0.12)), Verdict::Unresolved);
        assert_eq!(judge(Lower, 0.10, 100.0, 50.0, None), Verdict::WithinBound);
        assert_eq!(judge(Lower, 0.10, 100.0, 120.0, None), Verdict::Worse);
        assert_eq!(judge(Higher, 0.05, 10.0, 9.0, Some(0.0)), Verdict::Worse);
        assert_eq!(judge(Higher, 0.05, 10.0, 10.1, Some(0.0)), Verdict::Better);
        assert_eq!(judge(Lower, 0.05, 0.0, 0.0, Some(0.0)), Verdict::WithinBound);
    }
}
