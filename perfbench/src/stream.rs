//! `stream`: out-of-core PWS1 round trip of one large field through
//! `ChunkedCodec` with 2 workers and 1 Mi-element chunks. The pool, the
//! frame pipeline and the buffer arena do the work; a 1-worker pass of
//! the same input gives the pool's scaling efficiency.

use crate::adapter::{self, Chunked, Dims, SpanRec, Tracer};
use crate::batch::{self, Op};
use crate::report::{Input, Outcome};
use crate::rss::PeakRss;
use crate::spans::{coverage_notes, layer_metrics, PassTrace};
use crate::stats::{median, percentile};
use crate::{check, Config, SETUP_REPEATS};
use std::io::Write;
use std::time::Instant;

const BOUND: f64 = 1e-3;
const CODEC: &str = "sz_t";
const WORKERS: usize = 2;

/// Compressed-byte sink: counts what it is given and either keeps it
/// (the first pass, whose stream the decompress side reads) or checks it
/// against what it kept.
struct CountingSink<'a> {
    bytes: usize,
    keep: Option<&'a mut Vec<u8>>,
    reference: &'a [u8],
    differs: bool,
}

impl Write for CountingSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match &mut self.keep {
            Some(v) => v.extend_from_slice(buf),
            None => {
                let end = self.bytes + buf.len();
                self.differs |= self.reference.get(self.bytes..end) != Some(buf);
            }
        }
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Pass {
    op: Op,
    trace: Option<PassTrace>,
    /// Pool queue waits of the compress side, microseconds.
    waits_us: Vec<f64>,
    worker_busy_frac: f64,
}

/// Span time of the chunk tasks over the time the workers were
/// available during the root spans.
fn busy_frac(spans: &[SpanRec], workers: usize) -> (f64, f64) {
    let d = |s: &SpanRec| s.end_ns.saturating_sub(s.start_ns) as f64;
    let busy = spans
        .iter()
        .filter(|s| s.name.starts_with("chunk_"))
        .map(d)
        .sum();
    let root = spans
        .iter()
        .filter(|s| s.name.starts_with("stream_"))
        .map(d)
        .sum::<f64>();
    (busy, root * workers as f64)
}

fn run_pass(
    cc: &Chunked,
    data: &[f32],
    dims: Dims,
    stream: &mut Vec<u8>,
    back: &mut [f32],
    traced: bool,
    out: &mut Outcome,
) -> Option<Pass> {
    let first = stream.is_empty();
    let reference = std::mem::take(stream);
    let mut kept = Vec::with_capacity(if first { data.len() } else { 0 });
    let mut sink = CountingSink {
        bytes: 0,
        keep: first.then_some(&mut kept),
        reference: &reference,
        differs: false,
    };
    let tc = traced.then(Tracer::new);
    out.attempted += 1;
    let t0 = Instant::now();
    let r = cc.compress(CODEC, data, dims, BOUND, &mut sink, tc.as_ref());
    let compress_s = t0.elapsed().as_secs_f64();
    let (written, differs) = (sink.bytes, sink.differs);
    *stream = if first { kept } else { reference };
    let handed_out = match r {
        Ok(stamps) => stamps,
        Err(e) => {
            out.errors += 1;
            out.notes.push(e);
            return None;
        }
    };
    if differs || written != stream.len() {
        out.mismatches += 1;
    }

    // NaN breaks the bound check, so a point no chunk wrote is caught
    // rather than passing with the previous pass's value.
    back.fill(f32::NAN);
    let (mut delivered, mut out_of_range) = (0usize, false);
    let td = traced.then(Tracer::new);
    out.attempted += 1;
    let t1 = Instant::now();
    let r = cc.decompress::<f32>(
        &mut &stream[..],
        &mut |start, chunk| {
            delivered += chunk.len();
            match back.get_mut(start..start + chunk.len()) {
                Some(dst) => dst.copy_from_slice(chunk),
                None => out_of_range = true,
            }
        },
        td.as_ref(),
    );
    let decompress_s = t1.elapsed().as_secs_f64();
    if let Err(e) = r {
        out.errors += 1;
        out.notes.push(e);
        return None;
    }
    out.bound_violations += check::bound_violations(data, back, BOUND);
    if delivered != data.len() || out_of_range {
        out.errors += 1;
        out.notes.push(format!(
            "stream decompress delivered {delivered} of {} elements{}",
            data.len(),
            if out_of_range {
                ", some out of range"
            } else {
                ""
            }
        ));
        return None;
    }

    let mut pass = Pass {
        op: Op {
            compress_s,
            decompress_s,
        },
        trace: None,
        waits_us: Vec::new(),
        worker_busy_frac: 0.0,
    };
    if let (Some(tc), Some(td)) = (tc, td) {
        let (c, d) = (tc.snapshot(), td.snapshot());
        let mut starts: Vec<u64> = c
            .spans
            .iter()
            .filter(|s| s.name == "chunk_compress")
            .map(|s| s.start_ns)
            .collect();
        starts.sort_unstable();
        // Workers claim chunks in the order the source handed them out.
        pass.waits_us = starts
            .iter()
            .zip(&handed_out)
            .map(|(&s, &h)| s.saturating_sub(h) as f64 / 1e3)
            .collect();
        let (cb, cr) = busy_frac(&c.spans, cc.workers());
        let (db, dr) = busy_frac(&d.spans, cc.workers());
        pass.worker_busy_frac = (cb + db) / (cr + dr).max(1.0);
        let mut t = PassTrace::default();
        t.add("stream compress", &c, "stream_compress", compress_s * 1e9);
        t.add(
            "stream decompress",
            &d,
            "stream_decompress",
            decompress_s * 1e9,
        );
        pass.trace = Some(t);
    }
    Some(pass)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (n, chunk) = if cfg.tiny { (32, 4096) } else { (256, 1 << 20) };
    let dims = Dims::d3(n, n, n);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut data));
        let t0 = Instant::now();
        data = adapter::nyx_density(dims, cfg.seed_for(0));
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.inputs.push(Input {
        name: "nyx.dark_matter_density".to_string(),
        shape: dims.to_string(),
        bytes: data.len() * 4,
        subnormals: check::subnormals(&data),
    });
    // Filled, so that it is resident before the RSS baseline is taken.
    let mut back = vec![f32::NAN; data.len()];
    let mut stream = Vec::new();
    let cc = Chunked::new(WORKERS, chunk);

    let rss = PeakRss::start();
    out.notes.push(format!(
        "resident before the measured passes: {:.1} MiB, of which {:.1} MiB are the \
         input and the output buffer",
        rss.baseline_mib(),
        2.0 * data.len() as f64 * 4.0 / (1024.0 * 1024.0)
    ));
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Run out the time; past it, go on only until each kind of pass has
    // succeeded once, and stop early if anything failed.
    while start.elapsed().as_secs_f64() < cfg.seconds
        || ((plain.is_empty() || (cfg.trace && traced.is_empty())) && out.errors == 0)
    {
        let trace_this = cfg.trace && plain.len() > traced.len();
        let pass = run_pass(
            &cc,
            &data,
            dims,
            &mut stream,
            &mut back,
            trace_this,
            &mut out,
        );
        match pass {
            Some(p) if trace_this => traced.push(p),
            Some(p) => plain.push(p),
            None => {}
        }
    }
    if plain.is_empty() || (cfg.trace && traced.is_empty()) {
        return Err(format!("no stream round trip succeeded: {:?}", out.notes));
    }
    let peak_rss = rss.finish();

    let mib = data.len() as f64 * 4.0 / (1024.0 * 1024.0);
    let ops = |ps: &[Pass]| -> Vec<Vec<Op>> { ps.iter().map(|p| vec![p.op]).collect() };
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), setups.len());
    m.set("ratio", data.len() as f64 * 4.0 / stream.len() as f64, 1);
    m.set("peak_rss_mib", peak_rss, 1);
    batch::end_to_end(m, &mut out.notes, &[mib], &ops(&plain));

    let m = &mut out.metrics;
    m.set("data.gen_ms", median(&setups) * 1e3, setups.len());
    m.not_exercised(&[
        "serve.request.server_ms",
        "serve.wait_ms",
        "serve.busy",
        "serve.generator_lag_ms",
    ]);
    let traces: Vec<PassTrace> = traced.iter().filter_map(|p| p.trace.clone()).collect();
    layer_metrics(&traces, m);
    if cfg.trace {
        let nt = traced.len();
        let waits: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.waits_us.iter().copied())
            .collect();
        m.set(
            "parallel.queue_wait_us.p50",
            percentile(&waits, 50.0),
            waits.len(),
        );
        m.set(
            "parallel.queue_wait_us.max",
            percentile(&waits, 100.0),
            waits.len(),
        );
        let busy: Vec<f64> = traced.iter().map(|p| p.worker_busy_frac).collect();
        m.set("parallel.worker_busy_frac", median(&busy), nt);
        // The same compress on a single worker, the median of three like
        // the 2-worker figure it is compared with.
        let one = Chunked::new(1, chunk);
        let mut single = Vec::new();
        for _ in 0..3 {
            out.attempted += 1;
            let t0 = Instant::now();
            match one.compress(CODEC, &data, dims, BOUND, &mut std::io::sink(), None) {
                Ok(_) => single.push(t0.elapsed().as_secs_f64()),
                Err(e) => {
                    out.errors += 1;
                    out.notes.push(e);
                }
            }
        }
        let pooled_s = batch::median_pass(&ops(&plain))[0].compress_s;
        m.set(
            "parallel.scaling_eff",
            median(&single) / (WORKERS as f64 * pooled_s),
            3,
        );
        let t = batch::total_s(&batch::median_pass(&ops(&traced)));
        let u = batch::total_s(&batch::median_pass(&ops(&plain)));
        m.set("trace.overhead_pct", 100.0 * (t / u - 1.0), nt);
        coverage_notes(&traces, &mut out.notes);
    } else {
        m.not_exercised(&[
            "parallel.queue_wait_us.p50",
            "parallel.queue_wait_us.max",
            "parallel.worker_busy_frac",
            "parallel.scaling_eff",
            "trace.overhead_pct",
        ]);
    }
    Ok(out)
}
