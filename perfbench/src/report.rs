//! Metric tables and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them, untraced.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("compress_mib_s", "MiB/s"),
    ("decompress_mib_s", "MiB/s"),
    ("ratio", "x"),
    ("peak_rss_mib", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("sustained_rps", "1/s"),
];

/// Per-layer metrics: every workload reports all of them from its
/// traced run, 0 for a layer the workload does not exercise.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("data.gen_ms", "ms"),
    ("core.transform.self_ms", "ms"),
    ("core.transform_inv.self_ms", "ms"),
    ("core.signs.self_ms", "ms"),
    ("sz.predict_quantize.self_ms", "ms"),
    ("sz.reconstruct.self_ms", "ms"),
    ("sz.quant_outliers", "count"),
    ("lossless.huffman.self_ms", "ms"),
    ("lossless.lz.self_ms", "ms"),
    ("zfp.lift.self_ms", "ms"),
    ("zfp.plane_code.self_ms", "ms"),
    ("pipeline.compress.self_ms", "ms"),
    ("pipeline.decompress.self_ms", "ms"),
    ("pipeline.stream_chunks", "count"),
    ("pipeline.arena_hit_frac", "frac"),
    ("parallel.pool_tasks", "count"),
    ("parallel.queue_wait_us.p50", "us"),
    ("parallel.queue_wait_us.max", "us"),
    ("parallel.worker_busy_frac", "frac"),
    ("parallel.scaling_eff", "frac"),
    ("serve.request.server_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// One reported figure with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Named values a workload fills in.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = value + 0.0;
        self.0.insert(name, Value { value, samples });
    }

    /// Reports 0 for layers this workload does not exercise.
    pub fn not_exercised(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0, 0);
        }
    }
}

/// One input the workload generated.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub shape: String,
    pub bytes: usize,
    pub subnormals: u64,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub inputs: Vec<Input>,
    /// Operations attempted (calls into pwrel or requests sent).
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub errors: u64,
    /// Streams that differ from their reference bytes (an earlier pass,
    /// or the local compress of a body the server compressed).
    pub mismatches: u64,
    /// Reconstructed points outside the point-wise bound.
    pub bound_violations: u64,
    /// Human-readable findings printed with the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.bound_violations == 0
    }
}

/// Renders the table and, as the last line, the result object for the
/// metric set `table`. Fails when a metric is missing or not finite.
pub fn render(out: &Outcome, table: &[(&'static str, &'static str)]) -> Result<String, String> {
    use std::fmt::Write as _;
    let attempted = out.attempted.max(1);
    let mut text = String::from("# metric                        value          unit    samples\n");
    let mut json = Vec::new();
    for &(name, unit) in table {
        let v = out
            .metrics
            .0
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", v.value));
        }
        let _ = writeln!(
            text,
            "# {name:<29} {:<14.6} {unit:<7} {}",
            v.value, v.samples
        );
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.value
        ));
    }
    let _ = writeln!(
        text,
        "# bound_violations              {:<14} points  (every reconstructed point checked)",
        out.bound_violations
    );
    let _ = writeln!(
        text,
        "# failed_frac                   {:<14.6} frac    {attempted}",
        out.failed() as f64 / attempted as f64
    );
    let _ = writeln!(
        text,
        "# mismatches                    {:<14} streams (bytes differ from the reference stream)",
        out.mismatches
    );
    for note in &out.notes {
        let _ = writeln!(text, "# note: {note}");
    }
    let _ = write!(
        text,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.failed(),
        json.join(", ")
    );
    Ok(text)
}
