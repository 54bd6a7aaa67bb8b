//! Self time and coverage from the spans pwrel-trace recorded for one
//! operation.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Children are found by interval nesting on the span's thread.
//! The operation's root span (`compress`, `stream_compress`, ...) is the
//! exception: its stages may run on worker threads, so its self time is
//! its duration minus the union of every top-level stage interval, on
//! any thread. Stage totals that per-block loops publish without
//! timestamps (ZFP's `lift` and `plane_code`, the fused log mapping) are
//! charged to the span that encloses them in the codec code:
//! `predict_quantize` for the SZ sweep's mapping, the root otherwise.

use crate::adapter::{SpanRec, TraceData};
use crate::report::Metrics;
use crate::stats::median;
use std::collections::BTreeMap;

/// The per-stage accounting of one operation, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Self time per span name; the root's name holds the root's self time.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Wall time during which some named stage below the root ran.
    pub covered_ns: f64,
}

fn contains(outer: &SpanRec, inner: &SpanRec) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
}

fn dur(s: &SpanRec) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> f64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total as f64
}

/// Splits one traced operation whose root span is named `root`.
pub fn breakdown(op: &TraceData, root: &'static str) -> Breakdown {
    let mut spans = op.spans.clone();
    // Per thread, by start; an enclosing span sorts before its children.
    spans.sort_by(|a, b| {
        (a.tid, a.start_ns)
            .cmp(&(b.tid, b.start_ns))
            .then(b.end_ns.cmp(&a.end_ns))
    });
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            if spans[top].tid == spans[i].tid && contains(&spans[top], &spans[i]) {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }

    let mut out = Breakdown::default();
    let root_ix = spans.iter().position(|s| s.name == root);
    let mut top_level = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if Some(i) == root_ix {
            continue;
        }
        *out.self_ns.entry(s.name).or_default() += dur(s);
        match parent[i] {
            Some(p) if Some(p) != root_ix => {
                *out.self_ns.entry(spans[p].name).or_default() -= dur(s);
            }
            _ => {
                if let Some(r) = root_ix {
                    let start = s.start_ns.max(spans[r].start_ns);
                    let end = s.end_ns.min(spans[r].end_ns);
                    if end > start {
                        top_level.push((start, end));
                    }
                }
            }
        }
    }
    let has_sweep = spans.iter().any(|s| s.name == "predict_quantize");
    let mut root_totals = 0.0;
    for (&name, &ns) in &op.totals {
        *out.self_ns.entry(name).or_default() += ns as f64;
        if name == "transform" && has_sweep {
            *out.self_ns.entry("predict_quantize").or_default() -= ns as f64;
        } else {
            root_totals += ns as f64;
        }
    }
    out.covered_ns = union_len(top_level) + root_totals;
    if let Some(r) = root_ix {
        let root_self = (dur(&spans[r]) - out.covered_ns).max(0.0);
        *out.self_ns.entry(root).or_default() += root_self;
    }
    out
}

/// Self times and counters summed over the operations of one traced
/// pass, with their wall time and the part of it named stages cover.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    pub self_ns: BTreeMap<&'static str, f64>,
    pub counters: BTreeMap<&'static str, u64>,
    pub covered_ns: f64,
    pub wall_ns: f64,
    /// The operation whose wall time named stages cover least, with
    /// that share in percent.
    pub least_covered: Option<(String, f64)>,
}

impl PassTrace {
    /// Adds one operation: a label for it, its trace, its root span name
    /// and the wall time the benchmark measured around the call.
    pub fn add(&mut self, label: &str, op: &TraceData, root: &'static str, wall_ns: f64) {
        let b = breakdown(op, root);
        for (name, ns) in b.self_ns {
            *self.self_ns.entry(name).or_default() += ns;
        }
        for (&name, &n) in &op.counters {
            *self.counters.entry(name).or_default() += n;
        }
        let covered = b.covered_ns.min(wall_ns);
        self.covered_ns += covered;
        self.wall_ns += wall_ns;
        let pct = 100.0 * covered / wall_ns.max(1.0);
        if self
            .least_covered
            .as_ref()
            .is_none_or(|(_, least)| pct < *least)
        {
            self.least_covered = Some((label.to_string(), pct));
        }
    }

    fn ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.self_ns.get(n))
            .sum::<f64>()
            / 1e6
    }

    fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Share of wall time no named stage covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns > 0.0 {
            100.0 * (self.wall_ns - self.covered_ns) / self.wall_ns
        } else {
            0.0
        }
    }
}

/// The stage self times and pipeline counters of the traced passes, as
/// medians over passes (each pass does the same work).
pub fn layer_metrics(passes: &[PassTrace], m: &mut Metrics) {
    let n = passes.len();
    let med = |f: &dyn Fn(&PassTrace) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let stages: [(&'static str, &[&str]); 11] = [
        ("core.transform.self_ms", &["transform"]),
        ("core.transform_inv.self_ms", &["transform_inv"]),
        ("core.signs.self_ms", &["signs"]),
        ("sz.predict_quantize.self_ms", &["predict_quantize"]),
        ("sz.reconstruct.self_ms", &["reconstruct"]),
        ("lossless.huffman.self_ms", &["huffman"]),
        ("lossless.lz.self_ms", &["lz"]),
        ("zfp.lift.self_ms", &["lift"]),
        ("zfp.plane_code.self_ms", &["plane_code"]),
        (
            "pipeline.compress.self_ms",
            &["compress", "stream_compress", "chunk_compress"],
        ),
        (
            "pipeline.decompress.self_ms",
            &["decompress", "stream_decompress", "chunk_decompress"],
        ),
    ];
    for (metric, names) in stages {
        m.set(metric, med(&|p| p.ms(names)), n);
    }
    m.set("sz.quant_outliers", med(&|p| p.count("quant_outliers")), n);
    m.set(
        "pipeline.stream_chunks",
        med(&|p| p.count("stream_chunks")),
        n,
    );
    m.set(
        "pipeline.arena_hit_frac",
        med(&|p| {
            let total = p.count("arena_hits") + p.count("arena_misses");
            if total > 0.0 {
                p.count("arena_hits") / total
            } else {
                0.0
            }
        }),
        n,
    );
    m.set("parallel.pool_tasks", med(&|p| p.count("pool_tasks")), n);
    m.set("unattributed_pct", med(&|p| p.unattributed_pct()), n);
}

/// Notes every traced pass in which some operation's named stages
/// cover less than 95% of its wall time.
pub fn coverage_notes(passes: &[PassTrace], notes: &mut Vec<String>) {
    for (i, p) in passes.iter().enumerate() {
        if let Some((label, pct)) = p.least_covered.as_ref().filter(|(_, pct)| *pct < 95.0) {
            notes.push(format!(
                "traced pass {i}: named stages cover only {pct:.1}% of {label}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            tid,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_stages_on_one_thread() {
        let op = TraceData {
            spans: vec![
                span("compress", 0, 0, 100),
                span("transform", 0, 0, 10),
                span("predict_quantize", 0, 10, 60),
                span("huffman", 0, 60, 90),
            ],
            totals: [("transform", 20)].into(),
            ..TraceData::default()
        };
        let b = breakdown(&op, "compress");
        assert_eq!(b.self_ns["transform"], 30.0);
        assert_eq!(b.self_ns["predict_quantize"], 30.0);
        assert_eq!(b.self_ns["huffman"], 30.0);
        assert_eq!(b.self_ns["compress"], 10.0);
        assert_eq!(b.covered_ns, 90.0);
    }

    #[test]
    fn worker_stages_cover_the_root_by_union() {
        let op = TraceData {
            spans: vec![
                span("stream_compress", 0, 0, 100),
                span("chunk_compress", 1, 5, 55),
                span("predict_quantize", 1, 5, 50),
                span("chunk_compress", 2, 10, 60),
                span("chunk_compress", 1, 70, 95),
            ],
            ..TraceData::default()
        };
        let b = breakdown(&op, "stream_compress");
        assert_eq!(b.covered_ns, 55.0 + 25.0);
        assert_eq!(b.self_ns["stream_compress"], 20.0);
        assert_eq!(b.self_ns["chunk_compress"], 50.0 + 50.0 + 25.0 - 45.0);
        assert_eq!(b.self_ns["predict_quantize"], 45.0);
    }

    #[test]
    fn unenclosed_totals_are_charged_to_the_root() {
        let op = TraceData {
            spans: vec![span("compress", 0, 0, 100), span("signs", 0, 80, 90)],
            totals: [("lift", 30), ("plane_code", 40)].into(),
            ..TraceData::default()
        };
        let b = breakdown(&op, "compress");
        assert_eq!(b.covered_ns, 80.0);
        assert_eq!(b.self_ns["compress"], 20.0);
        assert_eq!(b.self_ns["lift"], 30.0);
    }
}
