//! The one file that calls into pwrel.
//!
//! Every workload reaches the program through the functions and types
//! below, and only through public crate APIs: the `pwrel_data`
//! generators, `CodecRegistry` one-shot compress/decompress,
//! `ChunkedCodec` streams, `pwrel_serve::{Server, Client}` and the
//! `pwrel_trace::TraceSink` that the traced entry points fill. When the
//! program's API changes, this file is the only one to follow it.

use pwrel_data::grf;
use pwrel_parallel::{ChunkedCodec, WorkerPool};
use pwrel_pipeline::{global, ChunkSink, ChunkSource, CompressOpts, PipelineElem, SliceSource};
use pwrel_serve::{Client, CompressHeader, ServeConfig, Server, ServerHandle};
use pwrel_trace::{noop, Recorder, TraceSink};
use std::collections::BTreeMap;
use std::io::{Read, Write};

pub use pwrel_data::Dims;

/// The element types the benchmark drives (`f32`, `f64`).
pub trait Elem: PipelineElem {}
impl<F: PipelineElem> Elem for F {}

/// Kernel-dispatch overrides read by pwrel's kernels. Any of them set
/// would change which kernel is measured.
pub const KERNEL_OVERRIDES: [&str; 4] = ["PWREL_KERNEL", "PWREL_SWEEP", "PWREL_LIFT", "PWREL_HIST"];

// ---------------------------------------------------------------------------
// Input generators. Each is a seeded smoothed Gaussian random field from
// `pwrel_data::grf`, shaped as the matching `pwrel_data` dataset module
// shapes it (`nyx`, `hacc`, `cesm`), but at the benchmark's own grid size
// and with the workload seed in place of the module's fixed seed.
// ---------------------------------------------------------------------------

/// NYX `dark_matter_density`: lognormal with sigma 2.2, so that about
/// 84% of values lie in `(0, 1]` with a heavy tail.
pub fn nyx_density(dims: Dims, seed: u64) -> Vec<f32> {
    let sigma = 2.2f64;
    grf::gaussian_field(dims, seed, 2, 3)
        .into_iter()
        .map(|v| (-sigma + sigma * v as f64).exp() as f32)
        .collect()
}

/// NYX `velocity_x`: smooth signed field around 1e7 plus small-scale jitter.
pub fn nyx_velocity(dims: Dims, seed: u64) -> Vec<f32> {
    let bulk = grf::gaussian_field(dims, seed, 3, 3);
    let jitter = grf::gaussian_field(dims, seed ^ 0xBEEF, 1, 1);
    bulk.iter()
        .zip(&jitter)
        .map(|(&b, &j)| (b as f64 * 9.0e6 + j as f64 * 4.0e5) as f32)
        .collect()
}

/// HACC `velocity_x` over `n` particles: bulk and meso-scale flow, a
/// Laplacian-like jitter and rare large spikes.
pub fn hacc_velocity(n: usize, seed: u64) -> Vec<f32> {
    let dims = Dims::d1(n);
    let bulk = grf::gaussian_field(dims, seed, 16, 2);
    let meso = grf::gaussian_field(dims, seed ^ 0x0123_4567, 3, 2);
    let noise = grf::white_noise(n, seed ^ 0x5EED);
    bulk.iter()
        .zip(&meso)
        .zip(&noise)
        .map(|((&b, &m), &w)| {
            let w = w as f64;
            let lap = w * w.abs() * 40.0;
            // |w| > 3.09 has probability 0.2%, the module's spike rate.
            let spike = if w.abs() > 3.09 {
                w.signum() * 6_000.0 * w.abs()
            } else {
                0.0
            };
            (b as f64 * 600.0 + m as f64 * 180.0 + lap + spike) as f32
        })
        .collect()
}

/// CESM `CLDLOW`: cloud fraction clamped into `[0, 1]`, so it holds
/// exact zeros and ones.
pub fn cesm_cloud(dims: Dims, seed: u64) -> Vec<f32> {
    grf::gaussian_field(dims, seed, 4, 3)
        .into_iter()
        .map(|v| (0.45 + 0.55 * v as f64).clamp(0.0, 1.0) as f32)
        .collect()
}

/// CESM `U850`: zonal wind, signed, about 12 m/s standard deviation.
pub fn cesm_wind(dims: Dims, seed: u64) -> Vec<f32> {
    grf::gaussian_field(dims, seed, 5, 3)
        .into_iter()
        .map(|v| v * 12.0)
        .collect()
}

// ---------------------------------------------------------------------------
// Tracing: a sink per traced operation, copied out into benchmark types.
// ---------------------------------------------------------------------------

/// A recorder for one traced operation.
pub struct Tracer(TraceSink);

impl Tracer {
    pub fn new() -> Self {
        Tracer(TraceSink::new())
    }

    /// Nanoseconds on the sink's clock, for timestamps the benchmark
    /// takes itself and compares with the recorded spans.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed_ns()
    }

    /// Copies out everything the sink recorded.
    pub fn snapshot(&self) -> TraceData {
        TraceData {
            spans: self
                .0
                .events()
                .into_iter()
                .map(|e| SpanRec {
                    name: e.name,
                    tid: e.tid,
                    start_ns: e.start_ns,
                    end_ns: e.start_ns + e.dur_ns.unwrap_or(0),
                })
                .collect(),
            totals: self
                .0
                .span_totals()
                .into_iter()
                .map(|(name, t)| (name, t.total_ns))
                .collect(),
            counters: self.0.counters().into_iter().collect(),
        }
    }
}

fn recorder(t: Option<&Tracer>) -> &dyn Recorder {
    match t {
        Some(t) => &t.0,
        None => noop(),
    }
}

/// One recorded span on the sink's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one traced operation recorded: timed spans, stage totals that
/// per-block loops publish without timestamps, and counters.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    pub spans: Vec<SpanRec>,
    pub totals: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<&'static str, u64>,
}

// ---------------------------------------------------------------------------
// One-shot registry round trips.
// ---------------------------------------------------------------------------

/// Compresses with the named registry codec at point-wise relative bound
/// `bound` (log base 2).
pub fn compress<F: Elem>(
    codec: &str,
    data: &[F],
    dims: Dims,
    bound: f64,
    t: Option<&Tracer>,
) -> Result<Vec<u8>, String> {
    global()
        .compress_traced(codec, data, dims, &CompressOpts::rel(bound), recorder(t))
        .map_err(|e| format!("compress {codec}: {e}"))
}

/// Decompresses any registry stream.
pub fn decompress<F: Elem>(bytes: &[u8], t: Option<&Tracer>) -> Result<Vec<F>, String> {
    global()
        .decompress_traced::<F>(bytes, recorder(t))
        .map(|(data, _)| data)
        .map_err(|e| format!("decompress: {e}"))
}

/// The sequential framed-stream compress of a whole in-memory field:
/// the reference a `pwrel-serve` compress response must equal.
pub fn stream_compress_local<F: Elem>(
    codec: &str,
    data: &[F],
    dims: Dims,
    bound: f64,
    chunk_elems: usize,
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    global()
        .compress_stream(
            codec,
            &mut SliceSource::new(data),
            &mut out,
            dims,
            &CompressOpts::rel(bound),
            chunk_elems,
        )
        .map_err(|e| format!("local stream compress {codec}: {e}"))?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Out-of-core streams through ChunkedCodec.
// ---------------------------------------------------------------------------

/// A chunk-pipelined codec over its own pool.
pub struct Chunked(ChunkedCodec);

impl Chunked {
    /// `workers` pool threads, `chunk_elems` elements per chunk and the
    /// default in-flight window.
    pub fn new(workers: usize, chunk_elems: usize) -> Self {
        Chunked(ChunkedCodec::new(WorkerPool::new(workers), chunk_elems))
    }

    pub fn workers(&self) -> usize {
        self.0.pool.workers()
    }

    /// Compresses `data` chunk by chunk into `out`. When traced, returns
    /// the sink-clock time at which each chunk left the source.
    pub fn compress<F: Elem>(
        &self,
        codec: &str,
        data: &[F],
        dims: Dims,
        bound: f64,
        out: &mut dyn Write,
        t: Option<&Tracer>,
    ) -> Result<Vec<u64>, String> {
        let mut src = StampedSource {
            inner: SliceSource::new(data),
            tracer: t,
            stamps: Vec::new(),
        };
        self.0
            .compress_stream_traced(
                global(),
                codec,
                &mut src,
                out,
                dims,
                &CompressOpts::rel(bound),
                recorder(t),
            )
            .map(|_| src.stamps)
            .map_err(|e| format!("stream compress {codec}: {e}"))
    }

    /// Decompresses a framed stream, handing each reconstructed chunk to
    /// `consume(start, chunk)` in raster order.
    pub fn decompress<F: Elem>(
        &self,
        input: &mut dyn Read,
        consume: &mut dyn FnMut(usize, &[F]),
        t: Option<&Tracer>,
    ) -> Result<(), String> {
        let mut sink = FnSink(consume);
        self.0
            .decompress_stream_traced(global(), input, &mut sink, recorder(t))
            .map(|_| ())
            .map_err(|e| format!("stream decompress: {e}"))
    }
}

struct StampedSource<'a, 'b, F> {
    inner: SliceSource<'a, F>,
    tracer: Option<&'b Tracer>,
    stamps: Vec<u64>,
}

impl<F: Elem> ChunkSource<F> for StampedSource<'_, '_, F> {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<F>) -> Result<(), pwrel_data::CodecError> {
        self.inner.next_chunk(n, buf)?;
        if let Some(t) = self.tracer {
            self.stamps.push(t.now_ns());
        }
        Ok(())
    }
}

struct FnSink<'a, F>(&'a mut dyn FnMut(usize, &[F]));

impl<F: Elem> ChunkSink<F> for FnSink<'_, F> {
    fn put_chunk(&mut self, start: usize, data: &[F]) -> Result<(), pwrel_data::CodecError> {
        (self.0)(start, data);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// pwrel-serve on loopback.
// ---------------------------------------------------------------------------

/// A `pwrel-serve` instance with the default configuration on an
/// ephemeral loopback port. Dropping it shuts the server down and joins
/// its accept thread.
pub struct Service(ServerHandle);

impl Service {
    pub fn start() -> Result<Self, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        server
            .spawn()
            .map(Service)
            .map_err(|e| format!("spawn: {e}"))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Client::connect(self.0.addr())
            .map(Conn)
            .map_err(|e| format!("connect: {e}"))
    }
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    /// Compresses a little-endian f32 body with the named codec in
    /// frames of `chunk_elems` elements and returns the server's PWS1
    /// stream.
    pub fn compress_f32(
        &mut self,
        codec: &str,
        body_le: &[u8],
        dims: Dims,
        bound: f64,
        chunk_elems: usize,
    ) -> Result<Vec<u8>, String> {
        let codec_id = global()
            .by_name(codec)
            .ok_or_else(|| format!("unknown codec {codec}"))?
            .id();
        let opts = CompressOpts::rel(bound);
        let header = CompressHeader {
            codec_id,
            elem_bits: 32,
            base: opts.base,
            bound,
            dims,
            chunk_elems: chunk_elems as u64,
        };
        let mut out = Vec::new();
        let mut body = body_le;
        self.0
            .compress_stream(&header, &mut body, &mut out)
            .map_err(|e| format!("serve compress: {e}"))?;
        Ok(out)
    }

    /// Decompresses a PWS1 f32 stream through the server.
    pub fn decompress_f32(&mut self, stream: &[u8]) -> Result<Vec<f32>, String> {
        self.0
            .decompress_elems::<f32>(stream)
            .map_err(|e| format!("serve decompress: {e}"))
    }

    /// The server's metrics exposition as `name -> value`.
    pub fn metrics(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let text = self.0.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(text
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect())
    }
}
