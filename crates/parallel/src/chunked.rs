//! Chunk-pipelined compression of a single large field over framed
//! streams.
//!
//! The paper parallelizes across *files* (one rank, one field, one
//! file). Within a node it is often preferable to split one large field
//! into slabs along its slowest axis and overlap the slabs' stages:
//! each slab is an independent codec stream (prediction restarts at the
//! boundary, so the error bound is preserved per-slab at a small
//! compression-ratio cost), and decompression pipelines the same way.
//!
//! The container is the framed stream format from
//! [`pwrel_pipeline::stream`] (`PWS1` header + self-describing frames),
//! so everything this wrapper emits is readable by the registry's
//! sequential `decompress_stream` and vice versa — the pipelined and
//! sequential engines are byte-identical for the same chunk size. Every
//! chunk goes through a registered codec's one `compress`/`decompress`
//! pair, resolved from the registry by name or by the stream's codec
//! id. Chunks flow through [`WorkerPool::pipeline`]: the calling thread
//! reads chunk `k+2` and writes frame `k` while workers compress the
//! chunks in between, with the bounded in-flight window capping peak
//! memory at a few chunks regardless of field size. Chunk buffers recycle through a
//! [`BufferPool`] arena, so the engine's own steady-state allocation per
//! chunk is zero after warm-up.

use crate::pool::WorkerPool;
use pwrel_data::{CodecError, Dims};
use pwrel_pipeline::stream;
use pwrel_pipeline::{
    BufferPool, ChunkPlan, ChunkSink, ChunkSource, Codec, CodecRegistry, CompressOpts, FrameHeader,
    FrameWalker, PipelineElem, StreamHeader, StreamStats,
};
use pwrel_trace::{stage, Recorder, Span};
use std::io::{Read, Write};

/// One decoded chunk in flight: recycled payload buffer, expected slab
/// dims, and the worker's decode result.
type DecodedChunk<F> = (Vec<u8>, Dims, Result<(Vec<F>, Dims), CodecError>);

/// Chunk-pipelined wrapper running a registered codec over a framed
/// stream with bounded memory.
#[derive(Debug, Clone)]
pub struct ChunkedCodec {
    /// Worker pool used for both directions.
    pub pool: WorkerPool,
    /// Requested elements per chunk (rounded to whole slices of the
    /// slowest axis; see [`ChunkPlan`]). Zero or more than the field's
    /// total element count is a usage error surfaced as
    /// [`CodecError::InvalidArgument`], never a panic or a silent
    /// single-chunk fallback.
    pub chunk_elems: usize,
    /// Bounded in-flight window for the pipelined executor (clamped to
    /// ≥ 1): peak memory is about `window` chunks plus codec scratch.
    pub window: usize,
}

impl ChunkedCodec {
    /// A chunked codec over `pool` with the given chunk size and a
    /// two-chunks-per-worker window (enough to keep every worker busy
    /// while the caller reads ahead and drains in order).
    pub fn new(pool: WorkerPool, chunk_elems: usize) -> Self {
        Self {
            window: pool.workers() * 2,
            pool,
            chunk_elems,
        }
    }

    /// The chunk-pipelined compress engine: plans slabs, writes the
    /// stream header, then runs read → compress → write-frame over the
    /// pool with frames emitted strictly in chunk order (byte-identical
    /// to the sequential engine in `pwrel-pipeline`). On error the
    /// stream written so far is abandoned mid-frame — callers discard it.
    fn run_compress<F: PipelineElem>(
        &self,
        codec: &dyn Codec,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn Write,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let plan = ChunkPlan::new(dims, self.chunk_elems, codec.chunk_granularity())?;
        let header = StreamHeader {
            codec_id: codec.id(),
            elem_bits: F::BITS as u8,
            dims,
            bound: opts.bound,
            base: opts.base,
            entropy_mode: codec.entropy_mode(),
            n_chunks: plan.n_chunks() as u64,
        };
        let mut head = Vec::with_capacity(48);
        stream::encode_stream_header(&mut head, &header);
        out.write_all(&head).map_err(stream::write_failed)?;

        let arena: BufferPool<F> = BufferPool::new();
        let mut stats = StreamStats {
            chunks: plan.n_chunks() as u64,
            elements: dims.len() as u64,
            bytes_in: (dims.len() * F::NBYTES) as u64,
            bytes_out: head.len() as u64,
        };
        let mut produced = 0usize;
        let mut index = 0u64;
        let mut covered = 0u64;
        self.pool.pipeline_traced(
            self.window.max(1),
            || {
                if produced == plan.n_chunks() {
                    return Ok(None);
                }
                let (_, n) = plan.chunk_range(produced);
                let d = plan.chunk_dims(produced);
                let mut buf = arena.take(n);
                src.next_chunk(n, &mut buf)?;
                if buf.len() != n {
                    return Err(CodecError::InvalidArgument(
                        "chunk source returned the wrong length",
                    ));
                }
                produced += 1;
                Ok(Some((buf, d)))
            },
            |(buf, d): (Vec<F>, Dims)| {
                let _chunk = Span::enter(rec, stage::CHUNK_COMPRESS);
                let payload = codec.compress(F::erase(&buf), d, opts, rec);
                (buf, payload)
            },
            |(buf, payload): (Vec<F>, Result<Vec<u8>, CodecError>)| {
                let n = buf.len();
                arena.put(buf);
                let payload = payload?;
                head.clear();
                stream::encode_frame_header(
                    &mut head,
                    &FrameHeader {
                        index,
                        start: covered,
                        n_elems: n as u64,
                        bound: opts.bound,
                        payload_len: payload.len() as u64,
                    },
                );
                out.write_all(&head).map_err(stream::write_failed)?;
                out.write_all(&payload).map_err(stream::write_failed)?;
                stats.bytes_out += (head.len() + payload.len()) as u64;
                index += 1;
                covered += n as u64;
                Ok(())
            },
            rec,
        )?;
        if rec.is_enabled() {
            rec.add(stage::C_STREAM_CHUNKS, stats.chunks);
            rec.add(stage::C_BYTES_IN, stats.bytes_in);
            rec.add(stage::C_BYTES_OUT, stats.bytes_out);
            arena.record(rec);
        }
        Ok(stats)
    }

    /// The chunk-pipelined decompress engine: admits frames through the
    /// shared [`FrameWalker`] rules (sequential indices, contiguous
    /// coverage, payload plausibility) on the reading thread, fans the
    /// payloads out to workers, and delivers chunks to `sink` strictly
    /// in raster order.
    fn run_decompress<F: PipelineElem>(
        &self,
        codec: &dyn Codec,
        header: &StreamHeader,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let mut walker = FrameWalker::new(header);
        let arena: BufferPool<u8> = BufferPool::new();
        let mut stats = StreamStats {
            chunks: header.n_chunks,
            elements: header.dims.len() as u64,
            ..StreamStats::default()
        };
        let mut covered = 0usize;
        self.pool.pipeline_traced(
            self.window.max(1),
            || {
                if walker.remaining() == 0 {
                    return Ok(None);
                }
                let fh = stream::decode_frame_header(input)?;
                let chunk_dims = walker.admit(&fh)?;
                // admit() capped payload_len, so sizing from it is safe.
                let len = fh.payload_len as usize;
                let mut payload = arena.take(len);
                payload.resize(len, 0);
                input
                    .read_exact(&mut payload)
                    .map_err(stream::read_failed)?;
                Ok(Some((payload, chunk_dims)))
            },
            |(payload, d): (Vec<u8>, Dims)| {
                let _chunk = Span::enter(rec, stage::CHUNK_DECOMPRESS);
                let res = codec
                    .decompress(&payload, F::ELEM, rec)
                    .and_then(|(data, d)| Ok((F::unerase(data)?, d)));
                (payload, d, res)
            },
            |(payload, chunk_dims, res): DecodedChunk<F>| {
                stats.bytes_in += payload.len() as u64;
                arena.put(payload);
                let (data, d) = res?;
                if d != chunk_dims || data.len() != chunk_dims.len() {
                    return Err(CodecError::Corrupt("chunk payload shape mismatch"));
                }
                sink.put_chunk(covered, &data)?;
                covered += data.len();
                stats.bytes_out += (data.len() * F::NBYTES) as u64;
                Ok(())
            },
            rec,
        )?;
        walker.finish()?;
        if rec.is_enabled() {
            rec.add(stage::C_STREAM_CHUNKS, stats.chunks);
            rec.add(stage::C_DECOMP_BYTES_IN, stats.bytes_in);
            rec.add(stage::C_DECOMP_BYTES_OUT, stats.bytes_out);
            arena.record(rec);
        }
        Ok(stats)
    }

    /// The out-of-core entry point: compresses a chunk source into a
    /// framed stream on `out` with a registered codec, pipelined over
    /// the pool. Peak memory is about `window` chunks — the field is
    /// never resident. Emits the same bytes as the registry's sequential
    /// [`CodecRegistry::compress_stream_traced`] at the same chunk size;
    /// the recorder only observes.
    #[allow(clippy::too_many_arguments)] // the registry's signature plus the pool
    pub fn compress_stream_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        codec: &str,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn Write,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let c = registry
            .by_name(codec)
            .ok_or(CodecError::InvalidArgument("unknown codec name"))?;
        let _root = Span::enter(rec, stage::STREAM_COMPRESS);
        self.run_compress(c, src, out, dims, opts, rec)
    }

    /// The out-of-core decode entry point: decompresses a framed stream
    /// from `input` into `sink`, pipelined over the pool, returning the
    /// stream header and the run counters.
    pub fn decompress_stream_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<(StreamHeader, StreamStats), CodecError> {
        let _root = Span::enter(rec, stage::STREAM_DECOMPRESS);
        let header = stream::decode_stream_header(input)?;
        let stats = self.decompress_stream_body_traced(registry, &header, input, sink, rec)?;
        Ok((header, stats))
    }

    /// Pool-pipelined counterpart of
    /// [`CodecRegistry::decompress_stream_body_traced`]: decompresses
    /// the frames of a stream whose header the caller already decoded
    /// and vetted, with `input` positioned at the first frame marker.
    /// Lets a server impose its own shape limits between header and
    /// body without re-buffering the header bytes.
    pub fn decompress_stream_body_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        header: &StreamHeader,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        if header.elem_bits as u32 != F::BITS {
            return Err(CodecError::Mismatch("element type does not match stream"));
        }
        let codec = registry
            .get(header.codec_id)
            .ok_or(CodecError::InvalidArgument("unknown codec id in stream"))?;
        self.run_decompress(codec, header, input, sink, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::{grf, Float};
    use pwrel_pipeline::{global, PipelineElem, ReadSource, SliceSource, VecSink, WriteSink};
    use pwrel_trace::noop;

    /// A whole in-memory field through the pipelined compress engine.
    fn compress<F: PipelineElem>(
        chunked: &ChunkedCodec,
        codec: &str,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        let mut src = SliceSource::new(data);
        chunked.compress_stream_traced(global(), codec, &mut src, &mut out, dims, opts, noop())?;
        Ok(out)
    }

    /// A whole framed stream through the pipelined decompress engine;
    /// bytes after the final frame are an error.
    fn decompress<F: PipelineElem>(
        chunked: &ChunkedCodec,
        bytes: &[u8],
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let mut input = bytes;
        let mut sink = VecSink::new();
        let (header, _) =
            chunked.decompress_stream_traced(global(), &mut input, &mut sink, noop())?;
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after final frame"));
        }
        Ok((sink.into_inner(), header.dims))
    }

    #[test]
    fn chunked_round_trip_preserves_bound_3d() {
        let dims = Dims::d3(24, 16, 16);
        let data = grf::gaussian_field(dims, 42, 2, 2);
        let positive: Vec<f32> = data.iter().map(|v| v.abs() + 0.1).collect();
        // 6 slices of 256 elements per chunk -> 4 chunks.
        let chunked = ChunkedCodec::new(WorkerPool::new(4), 6 * 256);
        let br = 1e-3;
        let stream = compress(&chunked, "sz_t", &positive, dims, &CompressOpts::rel(br)).unwrap();
        let (dec, d2) = decompress::<f32>(&chunked, &stream).unwrap();
        assert_eq!(d2, dims);
        for (&a, &b) in positive.iter().zip(&dec) {
            assert!(((a as f64 - b as f64) / a as f64).abs() <= br);
        }
    }

    #[test]
    fn chunked_output_is_deterministic_across_worker_counts() {
        let dims = Dims::d2(40, 32);
        let data = grf::gaussian_field(dims, 7, 3, 2);
        let opts = CompressOpts::rel(1e-2);
        let one = ChunkedCodec::new(WorkerPool::new(1), 8 * 32);
        let four = ChunkedCodec::new(WorkerPool::new(4), 8 * 32);
        let a = compress(&one, "sz_t", &data, dims, &opts).unwrap();
        let b = compress(&four, "sz_t", &data, dims, &opts).unwrap();
        assert_eq!(a, b, "stream must not depend on scheduling");
    }

    #[test]
    fn pipelined_bytes_match_sequential_registry_stream() {
        let dims = Dims::d2(32, 24);
        let data: Vec<f32> = grf::gaussian_field(dims, 3, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let chunk_elems = 8 * 24;
        let chunked = ChunkedCodec::new(WorkerPool::new(4), chunk_elems);
        let opts = CompressOpts::rel(1e-2);
        for codec in global().iter() {
            let pipelined = compress(&chunked, codec.name(), &data, dims, &opts)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let mut sequential = Vec::new();
            let mut src = SliceSource::new(&data[..]);
            global()
                .compress_stream::<f32>(
                    codec.name(),
                    &mut src,
                    &mut sequential,
                    dims,
                    &opts,
                    chunk_elems,
                )
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(
                pipelined,
                sequential,
                "{}: pipelined and sequential engines must emit identical streams",
                codec.name()
            );
        }
    }

    #[test]
    fn chunked_1d_and_partial_chunks() {
        let dims = Dims::d1(1001);
        let data: Vec<f32> = (0..1001).map(|i| (i as f32 + 2.0).ln()).collect();
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 150);
        let stream = compress(&chunked, "sz_t", &data, dims, &CompressOpts::rel(1e-2)).unwrap();
        let (dec, _) = decompress::<f32>(&chunked, &stream).unwrap();
        assert_eq!(dec.len(), data.len());
        for (&a, &b) in data.iter().zip(&dec) {
            assert!(((a - b) / a).abs() <= 1e-2);
        }
    }

    #[test]
    fn chunk_size_usage_errors_not_panics() {
        let dims = Dims::d2(16, 16);
        let data = vec![1.0f32; dims.len()];
        let opts = CompressOpts::rel(1e-2);
        for bad in [0usize, dims.len() + 1, dims.len() * 10] {
            let chunked = ChunkedCodec::new(WorkerPool::new(2), bad);
            let r = compress(&chunked, "sz_t", &data, dims, &opts);
            assert!(
                matches!(r, Err(CodecError::InvalidArgument(_))),
                "chunk_elems={bad} must be a usage error, got {r:?}"
            );
        }
        // A full-field chunk is legal: exactly one frame.
        let chunked = ChunkedCodec::new(WorkerPool::new(2), dims.len());
        assert!(compress(&chunked, "sz_t", &data, dims, &opts).is_ok());
    }

    #[test]
    fn registry_round_trip_every_codec() {
        let dims = Dims::d2(24, 32);
        let data: Vec<f32> = grf::gaussian_field(dims, 11, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.25)
            .collect();
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 6 * 32);
        let opts = CompressOpts::rel(1e-2);
        for codec in global().iter() {
            let stream = compress(&chunked, codec.name(), &data, dims, &opts)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let (dec, d2) = decompress::<f32>(&chunked, &stream)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(d2, dims, "{}", codec.name());
            assert_eq!(dec.len(), data.len(), "{}", codec.name());
            // The registry's one-shot decoder reads the same stream.
            let (dec2, d3) = global().decompress::<f32>(&stream).unwrap();
            assert_eq!(d3, dims, "{}", codec.name());
            assert_eq!(dec2, dec, "{}", codec.name());
        }
    }

    #[test]
    fn out_of_core_round_trip_via_read_write() {
        let dims = Dims::d3(16, 8, 8);
        let data: Vec<f32> = grf::gaussian_field(dims, 9, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let mut le = Vec::with_capacity(data.len() * 4);
        for &v in &data {
            v.write_le(&mut le);
        }
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 4 * 64);
        let opts = CompressOpts::rel(1e-2);

        // Compress from a byte reader: the field is never resident.
        let mut src: ReadSource<&[u8]> = ReadSource::new(&le[..]);
        let mut stream_bytes = Vec::new();
        let stats = chunked
            .compress_stream_traced::<f32>(
                global(),
                "sz_t",
                &mut src,
                &mut stream_bytes,
                dims,
                &opts,
                noop(),
            )
            .unwrap();
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.elements, dims.len() as u64);
        assert_eq!(stats.bytes_out, stream_bytes.len() as u64);

        // Decompress into a byte writer.
        let mut input: &[u8] = &stream_bytes;
        let mut sink: WriteSink<Vec<u8>> = WriteSink::new(Vec::new());
        let (header, _) = chunked
            .decompress_stream_traced::<f32>(global(), &mut input, &mut sink, noop())
            .unwrap();
        assert_eq!(header.dims, dims);
        assert!(input.is_empty(), "reader must stop at the final frame");
        let out_le = sink.into_inner();
        assert_eq!(out_le.len(), le.len());
        for (a, b) in le.chunks_exact(4).zip(out_le.chunks_exact(4)) {
            let (a, b) = (f32::read_le(a).unwrap(), f32::read_le(b).unwrap());
            assert!(((a as f64 - b as f64) / a as f64).abs() <= 1e-2);
        }
    }

    #[test]
    fn traced_chunked_round_trip_records_fanout() {
        use pwrel_trace::TraceSink;
        let dims = Dims::d2(40, 32);
        let data: Vec<f32> = grf::gaussian_field(dims, 5, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.25)
            .collect();
        let chunked = ChunkedCodec::new(WorkerPool::new(4), 10 * 32);
        let opts = CompressOpts::rel(1e-2);
        let sink = TraceSink::new();
        let mut stream = Vec::new();
        chunked
            .compress_stream_traced(
                global(),
                "sz_t",
                &mut SliceSource::new(&data[..]),
                &mut stream,
                dims,
                &opts,
                &sink,
            )
            .unwrap();
        let plain = compress(&chunked, "sz_t", &data, dims, &opts).unwrap();
        assert_eq!(stream, plain, "tracing must not change the stream");
        let mut dec = VecSink::<f32>::new();
        let (header, _) = chunked
            .decompress_stream_traced(global(), &mut &stream[..], &mut dec, &sink)
            .unwrap();
        assert_eq!(header.dims, dims);
        assert_eq!(dec.into_inner().len(), data.len());

        let rows = pwrel_trace::export::stage_rows(&sink);
        // One root span per direction, one chunk span per frame per
        // direction, pool tasks from both pipelined fan-outs.
        assert_eq!(rows[stage::STREAM_COMPRESS].calls, 1);
        assert_eq!(rows[stage::STREAM_DECOMPRESS].calls, 1);
        assert_eq!(rows[stage::CHUNK_COMPRESS].calls, 4);
        assert_eq!(rows[stage::CHUNK_DECOMPRESS].calls, 4);
        let counters: std::collections::BTreeMap<_, _> = sink.counters().into_iter().collect();
        assert_eq!(counters[stage::C_POOL_TASKS], 8);
        assert_eq!(counters[stage::C_STREAM_CHUNKS], 8);
        // The arena recycles once the window wraps; every take is
        // accounted as a hit or a miss.
        assert_eq!(
            counters[stage::C_ARENA_HITS] + counters[stage::C_ARENA_MISSES],
            8
        );
    }

    #[test]
    fn corrupt_stream_rejected() {
        let dims = Dims::d1(100);
        let data = vec![1.5f32; 100];
        let chunked = ChunkedCodec::new(WorkerPool::new(2), 25);
        let stream = compress(&chunked, "sz_t", &data, dims, &CompressOpts::rel(1e-2)).unwrap();
        assert!(decompress::<f32>(&chunked, &stream[..10]).is_err());
        let mut bad = stream.clone();
        bad[0] = b'X';
        assert!(decompress::<f32>(&chunked, &bad).is_err());
        // f64 element type mismatch.
        assert!(decompress::<f64>(&chunked, &stream).is_err());
        // Truncation after a whole frame must still be caught.
        for cut in [stream.len() - 1, stream.len() / 2] {
            assert!(
                decompress::<f32>(&chunked, &stream[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn more_chunks_cost_some_ratio_but_not_much() {
        let dims = Dims::d2(128, 64);
        let data: Vec<f32> = grf::gaussian_field(dims, 9, 4, 3)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let opts = CompressOpts::rel(1e-2);
        let whole = global().compress("sz_t", &data, dims, &opts).unwrap();
        let chunked = ChunkedCodec::new(WorkerPool::new(4), dims.len() / 8);
        let split = compress(&chunked, "sz_t", &data, dims, &opts).unwrap();
        assert!(
            split.len() < whole.len() * 2,
            "{} vs {}",
            split.len(),
            whole.len()
        );
    }
}
