//! End-to-end figures of the batch workloads (`snapshot`, `stream`).
//!
//! A batch workload repeats the same calls into pwrel pass after pass.
//! Each call's time is taken as its median over the passes of the run.
//! On a shared host a pass's time swings by a third from one pass to the
//! next; the median of a whole run's passes varies less from run to run
//! than the fastest pass does. A "request" is one compress or one
//! decompress call.

use crate::report::Metrics;
use crate::stats::{median, percentile, tail_percentile};

/// The times of one operation in one pass, seconds (NaN if it failed).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub compress_s: f64,
    pub decompress_s: f64,
}

/// The median pass of each operation; `passes[p][i]` is operation `i`
/// in pass `p`. NaN (failed) entries are skipped.
pub fn median_pass(passes: &[Vec<Op>]) -> Vec<Op> {
    let n = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let of = |f: fn(&Op) -> f64| {
                let v: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| p.get(i).map(f))
                    .filter(|t| !t.is_nan())
                    .collect();
                median(&v)
            };
            Op {
                compress_s: of(|o| o.compress_s),
                decompress_s: of(|o| o.decompress_s),
            }
        })
        .collect()
}

/// Total time of a set of operations, seconds.
pub fn total_s(ops: &[Op]) -> f64 {
    ops.iter().map(|o| o.compress_s + o.decompress_s).sum()
}

/// Sets the throughput, latency and rate metrics from the median pass
/// of each operation; `raw_mib[i]` is operation `i`'s raw size.
pub fn end_to_end(m: &mut Metrics, notes: &mut Vec<String>, raw_mib: &[f64], passes: &[Vec<Op>]) {
    let mid = median_pass(passes);
    let n = passes.len();
    let mib: f64 = raw_mib.iter().sum();
    let c: f64 = mid.iter().map(|o| o.compress_s).sum();
    let d: f64 = mid.iter().map(|o| o.decompress_s).sum();
    m.set("compress_mib_s", mib / c, n);
    m.set("decompress_mib_s", mib / d, n);
    let calls: Vec<f64> = mid
        .iter()
        .flat_map(|o| [o.compress_s, o.decompress_s])
        .collect();
    m.set("req_p50_ms", percentile(&calls, 50.0) * 1e3, calls.len());
    m.set("req_p95_ms", percentile(&calls, 95.0) * 1e3, calls.len());
    if tail_percentile(calls.len()).is_none_or(|p| p < 95.0) {
        notes.push(format!(
            "req_p95_ms is the nearest-rank p95 of {} distinct calls; the ten-beyond rule needs 200",
            calls.len()
        ));
    }
    m.set("sustained_rps", calls.len() as f64 / (c + d), n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_pass_per_operation_skips_failures() {
        let op = |c, d| Op {
            compress_s: c,
            decompress_s: d,
        };
        let passes = vec![
            vec![op(2.0, 1.0), op(f64::NAN, f64::NAN)],
            vec![op(1.5, 1.2), op(4.0, 3.0)],
            vec![op(9.0, 1.1), op(5.0, 2.0)],
        ];
        let mid = median_pass(&passes);
        assert_eq!((mid[0].compress_s, mid[0].decompress_s), (2.0, 1.1));
        assert_eq!((mid[1].compress_s, mid[1].decompress_s), (4.5, 2.5));
        assert_eq!(total_s(&mid), 10.1);
    }
}
