#![forbid(unsafe_code)]
//! Emits `BENCH_streaming.json`: wall-clock and peak-memory numbers for
//! the chunk-pipelined out-of-core path (`pwrel_parallel::ChunkedCodec`
//! over framed streams) at 1, 2 and 4 workers.
//!
//! The input field is *never materialized*: a template-chunk source
//! synthesizes each chunk on demand (one chunk-sized template, scaled
//! per slab so frames differ), the framed stream goes to a temp file,
//! and decompression drains into a counting sink. Peak memory is read
//! from `/proc/self/status` `VmHWM` as a delta against a baseline taken
//! before any streaming work. `VmHWM` is monotonic over the process
//! lifetime, so the gated compress runs come first, in increasing
//! window order — each one's high-water delta must stay within
//! `4 x chunk_bytes x window`. The bench runs a four-chunks-per-worker
//! window (deeper read-ahead than `ChunkedCodec::new`'s default two):
//! the budget's 4x-per-slot allowance then covers the raw chunk per
//! slot plus the per-worker codec scratch — SZ's fused sweep keeps a
//! quantized-code array and a running reconstruction, about 6x the
//! chunk per *active* task, amortized over the >= 4 slots per worker —
//! plus payload lag and allocator slack. The decompress runs follow,
//! timed and recorded but not gated: the bounded-memory acceptance
//! criterion is on streaming *compress*.
//!
//! Honours `PWREL_SCALE` (`small` 64^3 / `medium` 128^3 / `large` 512^3
//! f32, the issue's ~0.5 GiB scale). Flags:
//!
//! - `--assert-rss`: exit non-zero if any compress run exceeds its
//!   memory budget (CI smoke runs this at small scale).
//! - `--assert-scaling`: exit non-zero unless 4-worker compress
//!   throughput beats 1-worker. Only meaningful on a multi-core host —
//!   the JSON records `host_cpus` so readers can judge the numbers.

use pwrel_bench::{scale_from_env, timed};
use pwrel_data::{CodecError, Dims, Scale};
use pwrel_parallel::{ChunkedCodec, WorkerPool};
use pwrel_pipeline::{global, ChunkSource, CompressOpts, StreamStats, WriteSink};
use pwrel_trace::noop;

/// Synthesizes the field chunk by chunk from one template chunk: values
/// span several decades (the transform codecs' target shape) and each
/// slab is scaled by its index so no two frames are byte-identical.
struct TemplateSource {
    template: Vec<f32>,
    pos: usize,
}

impl TemplateSource {
    fn new(chunk_elems: usize) -> Self {
        let template = (0..chunk_elems)
            .map(|x| {
                let mag = 10f32.powi((x % 7) as i32 - 3);
                (0.1 + ((x as f32) * 0.37).sin().abs()) * mag
            })
            .collect();
        Self { template, pos: 0 }
    }
}

impl ChunkSource<f32> for TemplateSource {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<f32>) -> Result<(), CodecError> {
        buf.clear();
        buf.reserve(n);
        for k in 0..n {
            let i = self.pos + k;
            let scale = 1.0 + (i / self.template.len()) as f32 * 1e-3;
            buf.push(self.template[i % self.template.len()] * scale);
        }
        self.pos += n;
        Ok(())
    }
}

/// Counts decoded bytes without keeping them.
#[derive(Default)]
struct CountingWriter {
    bytes: u64,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The process peak resident set (`VmHWM`) in kB, from
/// `/proc/self/status`.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|l| l.trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let assert_rss = args.iter().any(|a| a == "--assert-rss");
    let assert_scaling = args.iter().any(|a| a == "--assert-scaling");

    let scale = scale_from_env();
    // Slab-aligned chunks: whole slices of the slowest axis.
    let (dims, chunk_elems) = match scale {
        Scale::Small => (Dims::d3(64, 64, 64), 16 * 64 * 64),
        Scale::Medium => (Dims::d3(128, 128, 128), 16 * 128 * 128),
        Scale::Large => (Dims::d3(512, 512, 512), 8 * 512 * 512),
    };
    let chunk_bytes = chunk_elems * 4;
    let raw_bytes = dims.len() * 4;
    let raw_mb = raw_bytes as f64 / (1 << 20) as f64;
    let bound = 1e-3;
    let opts = CompressOpts::rel(bound);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stream_path = std::env::temp_dir().join("pwrel_bench_streaming.pws");
    let workers_axis = [1usize, 2, 4];

    let baseline_kb = vm_hwm_kb();
    eprintln!(
        "streaming bench: {dims} f32 ({raw_mb:.0} MiB), chunk {chunk_elems} elems \
         ({} MiB), host_cpus {host_cpus}, baseline VmHWM {baseline_kb} kB",
        chunk_bytes >> 20,
    );

    // Gated compress runs first: VmHWM only grows, and so do the
    // budgets, so each run is checked against its own window's budget.
    let mut rss_failed = false;
    let mut compress_rows = Vec::new();
    let mut last_stats: Option<StreamStats> = None;
    for workers in workers_axis {
        let mut chunked = ChunkedCodec::new(WorkerPool::new(workers), chunk_elems);
        // Four in-flight chunks per worker (see module docs).
        chunked.window = workers * 4;
        let window = chunked.window;
        let budget_kb = (4 * chunk_bytes * window / 1024) as u64;

        let mut src = TemplateSource::new(chunk_elems);
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&stream_path).expect("create temp stream"),
        );
        let (stats, secs) = timed(|| {
            let stats = chunked
                .compress_stream_traced::<f32>(
                    global(),
                    "sz_t",
                    &mut src,
                    &mut out,
                    dims,
                    &opts,
                    noop(),
                )
                .expect("streaming compress");
            use std::io::Write;
            out.flush().expect("flush temp stream");
            stats
        });

        let hwm_delta_kb = vm_hwm_kb().saturating_sub(baseline_kb);
        let within = hwm_delta_kb <= budget_kb;
        rss_failed |= !within;
        let mib_s = raw_mb / secs;
        eprintln!(
            "compress, {workers} workers (window {window}): {secs:.2} s ({mib_s:.1} MiB/s), \
             ratio {:.2}x, peak RSS delta {hwm_delta_kb} kB vs budget {budget_kb} kB [{}]",
            raw_bytes as f64 / stats.bytes_out as f64,
            if within { "ok" } else { "OVER" },
        );
        compress_rows.push((
            workers,
            window,
            secs,
            mib_s,
            budget_kb,
            hwm_delta_kb,
            within,
        ));
        last_stats = Some(stats);
    }
    let stats = last_stats.expect("at least one compress run");

    // Decompress runs: timed and recorded, not RSS-gated (see module
    // docs). Every run decodes the same stream — the framed format is
    // deterministic across worker counts.
    let mut decompress_rows = Vec::new();
    for workers in workers_axis {
        let mut chunked = ChunkedCodec::new(WorkerPool::new(workers), chunk_elems);
        chunked.window = workers * 4;
        let mut input =
            std::io::BufReader::new(std::fs::File::open(&stream_path).expect("open temp stream"));
        let mut sink: WriteSink<CountingWriter> = WriteSink::new(CountingWriter::default());
        let ((header, _), secs) = timed(|| {
            chunked
                .decompress_stream_traced::<f32>(global(), &mut input, &mut sink, noop())
                .expect("streaming decompress")
        });
        assert_eq!(header.dims, dims);
        assert_eq!(
            sink.into_inner().bytes,
            raw_bytes as u64,
            "round trip lost bytes"
        );
        let mib_s = raw_mb / secs;
        eprintln!(
            "decompress, {workers} workers (window {}): {secs:.2} s ({mib_s:.1} MiB/s)",
            chunked.window,
        );
        decompress_rows.push((workers, chunked.window, secs, mib_s));
    }
    let _ = std::fs::remove_file(&stream_path);

    let configs: Vec<String> = compress_rows
        .iter()
        .zip(&decompress_rows)
        .map(
            |(&(workers, window, cs, cmb, budget_kb, delta_kb, within), &(_, _, ds, dmb))| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"workers\": {},\n",
                        "      \"window\": {},\n",
                        "      \"compress_s\": {:.3},\n",
                        "      \"compress_mib_s\": {:.2},\n",
                        "      \"decompress_s\": {:.3},\n",
                        "      \"decompress_mib_s\": {:.2},\n",
                        "      \"rss_budget_kb\": {},\n",
                        "      \"compress_peak_rss_delta_kb\": {},\n",
                        "      \"rss_within_budget\": {}\n",
                        "    }}",
                    ),
                    workers, window, cs, cmb, ds, dmb, budget_kb, delta_kb, within,
                )
            },
        )
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"streaming\",\n",
            "  \"scale\": \"{:?}\",\n",
            "  \"dims\": \"{}\",\n",
            "  \"elements\": {},\n",
            "  \"dtype\": \"f32\",\n",
            "  \"rel_bound\": {:e},\n",
            "  \"codec\": \"sz_t\",\n",
            "  \"chunk_elems\": {},\n",
            "  \"chunk_bytes\": {},\n",
            "  \"chunks\": {},\n",
            "  \"bytes_out\": {},\n",
            "  \"ratio\": {:.3},\n",
            "  \"host_cpus\": {},\n",
            "  \"baseline_hwm_kb\": {},\n",
            "  \"configs\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n",
        ),
        scale,
        dims,
        dims.len(),
        bound,
        chunk_elems,
        chunk_bytes,
        stats.chunks,
        stats.bytes_out,
        raw_bytes as f64 / stats.bytes_out as f64,
        host_cpus,
        baseline_kb,
        configs.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    eprintln!("wrote BENCH_streaming.json");

    if assert_rss && rss_failed {
        eprintln!("rss gate FAILED: streaming compress peak RSS exceeded 4 x chunk_bytes x window");
        std::process::exit(1);
    }
    if assert_scaling {
        let t1 = compress_rows
            .iter()
            .find(|r| r.0 == 1)
            .map(|r| r.3)
            .unwrap();
        let t4 = compress_rows
            .iter()
            .find(|r| r.0 == 4)
            .map(|r| r.3)
            .unwrap();
        if t4 <= t1 {
            eprintln!("scaling gate FAILED: 4-worker {t4:.1} MiB/s <= 1-worker {t1:.1} MiB/s");
            std::process::exit(1);
        }
        eprintln!("scaling gate passed: {t1:.1} -> {t4:.1} MiB/s");
    }
}
