//! Round-trip equivalence between the streamed out-of-core path (framed
//! `PWS1` streams, bounded memory) and the existing one-shot path, for
//! every registered codec at both precisions.
//!
//! Two stream-level invariants hold exactly:
//!
//! 1. **Single-chunk equivalence.** A framed stream whose one frame
//!    covers the whole field carries the codec's native stream verbatim,
//!    so its reconstruction is byte-identical to the one-shot container
//!    path on the same input.
//! 2. **Chunked determinism.** The pipelined `ChunkedCodec` engine emits
//!    bytes identical to the sequential registry engine at any worker
//!    count, and decoding a framed stream chunk-by-chunk reconstructs
//!    byte-identically to handing the same bytes to the one-shot
//!    `decompress` entry.
//!
//! Multi-chunk *compression* legitimately reconstructs differently from
//! whole-field compression (predictor context resets at slab
//! boundaries), so the cross-path guarantee is at the stream level, not
//! chunk-grain versus whole-field.

use proptest::prelude::*;
use pwrel::data::{Dims, Float};
use pwrel::parallel::{ChunkedCodec, WorkerPool};
use pwrel::pipeline::{global, CompressOpts, PipelineElem, SliceSource, VecSink};

fn bits<F: Float>(v: &[F]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits_u64()).collect()
}

/// Sequential registry engine: framed bytes for `data`.
fn framed_seq<F: PipelineElem>(
    name: &str,
    data: &[F],
    dims: Dims,
    opts: &CompressOpts,
    chunk_elems: usize,
) -> Vec<u8> {
    let mut src = SliceSource::new(data);
    let mut out = Vec::new();
    global()
        .compress_stream::<F>(name, &mut src, &mut out, dims, opts, chunk_elems)
        .unwrap();
    out
}

/// Decodes a framed stream chunk-by-chunk through the registry.
fn decode_seq<F: PipelineElem>(stream: &[u8]) -> Vec<F> {
    let mut sink = VecSink::new();
    global()
        .decompress_stream::<F>(&mut &stream[..], &mut sink)
        .unwrap();
    sink.into_inner()
}

/// Checks both invariants for one codec on one input.
fn check_codec<F: PipelineElem>(
    name: &str,
    data: &[F],
    dims: Dims,
    bound: f64,
    chunk_elems: usize,
    workers: usize,
) {
    let opts = CompressOpts::rel(bound);

    // 1. Single-chunk streamed round trip == one-shot round trip.
    let oneshot = global().compress::<F>(name, data, dims, &opts).unwrap();
    let (dec_oneshot, d) = global().decompress::<F>(&oneshot).unwrap();
    assert_eq!(d, dims, "{name}: one-shot dims");
    let whole = framed_seq::<F>(name, data, dims, &opts, dims.len());
    let dec_whole = decode_seq::<F>(&whole);
    assert_eq!(
        bits(&dec_oneshot),
        bits(&dec_whole),
        "{name}: single-chunk streamed reconstruction diverges from one-shot"
    );

    // 2a. Pipelined compress bytes == sequential compress bytes.
    let seq = framed_seq::<F>(name, data, dims, &opts, chunk_elems);
    let chunked = ChunkedCodec::new(WorkerPool::new(workers), chunk_elems);
    let mut src = SliceSource::new(data);
    let mut par = Vec::new();
    chunked
        .compress_stream_traced::<F>(
            global(),
            name,
            &mut src,
            &mut par,
            dims,
            &opts,
            pwrel_trace::noop(),
        )
        .unwrap();
    assert_eq!(seq, par, "{name}: pipelined stream bytes diverge");

    // 2b. Chunk-by-chunk decode == pipelined decode == one-shot decode
    // of the same framed bytes.
    let dec_seq = decode_seq::<F>(&seq);
    let mut sink = VecSink::new();
    chunked
        .decompress_stream_traced::<F>(global(), &mut &seq[..], &mut sink, pwrel_trace::noop())
        .unwrap();
    let dec_par = sink.into_inner();
    let (dec_oneshot, d) = global().decompress::<F>(&seq).unwrap();
    assert_eq!(d, dims, "{name}: framed one-shot dims");
    assert_eq!(
        bits(&dec_seq),
        bits(&dec_par),
        "{name}: pipelined decode diverges"
    );
    assert_eq!(
        bits(&dec_seq),
        bits(&dec_oneshot),
        "{name}: streamed decode diverges from one-shot decode"
    );
}

/// Deterministic multi-decade field with embedded zeros.
fn sample<F: Float>(n: usize) -> Vec<F> {
    (0..n)
        .map(|i| {
            if i % 53 == 0 {
                return F::zero();
            }
            let mag = 10f64.powi((i % 9) as i32 - 4);
            F::from_f64(((i as f64) * 0.37).sin().mul_add(0.45, 0.55) * mag)
        })
        .collect()
}

#[test]
fn all_codecs_equivalent_f32_and_f64() {
    let dims = Dims::d2(16, 24);
    let data32 = sample::<f32>(dims.len());
    let data64 = sample::<f64>(dims.len());
    for codec in global().iter() {
        let name = codec.name();
        check_codec::<f32>(name, &data32, dims, 1e-2, 4 * 16, 3);
        check_codec::<f64>(name, &data64, dims, 1e-2, 4 * 16, 3);
    }
}

#[test]
fn equivalence_holds_on_3d_grids() {
    let dims = Dims::d3(8, 12, 10);
    let data32 = sample::<f32>(dims.len());
    let data64 = sample::<f64>(dims.len());
    for codec in global().iter() {
        let name = codec.name();
        check_codec::<f32>(name, &data32, dims, 1e-3, 3 * 8 * 12, 2);
        check_codec::<f64>(name, &data64, dims, 1e-3, 3 * 8 * 12, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random field content, chunk grain, bound and worker count: the
    // stream-level equivalences must hold for every registered codec at
    // both precisions.
    #[test]
    fn streamed_equals_oneshot_for_all_codecs(
        raw in prop::collection::vec(-1000.0f64..1000.0, (16 * 24)..(16 * 24 + 1)),
        chunk_slices in 1usize..24,
        which_bound in 0usize..3,
        workers in 1usize..5,
    ) {
        let dims = Dims::d2(16, 24);
        let bound = [1e-1, 1e-2, 1e-3][which_bound];
        let chunk_elems = chunk_slices * 16;
        let data32: Vec<f32> = raw.iter().map(|&v| v as f32).collect();
        let data64: Vec<f64> = raw.clone();
        for codec in global().iter() {
            let name = codec.name();
            check_codec::<f32>(name, &data32, dims, bound, chunk_elems, workers);
            check_codec::<f64>(name, &data64, dims, bound, chunk_elems, workers);
        }
    }
}
