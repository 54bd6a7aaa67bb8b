//! Adapters wrapping each workspace compressor in the [`Codec`] trait.
//!
//! Compression for the transform-wrapped codecs goes through the fused
//! single-pass entry point (`compress_fused` — transform, prediction and
//! quantization in one streaming sweep); its stream is byte-identical to
//! the buffered route. Decompression reads everything it needs from the
//! payload itself — the adapters carry no decode-time state. Each adapter
//! writes its two directions once and picks the element type with one
//! `match` per call.

use crate::codec::{Codec, CompressOpts, ElemType, ElemVec, Elems};
use pwrel_core::{Kernel, LogBase, PwRelCompressor};
use pwrel_data::{AbsErrorCodec, CodecError, Dims};
use pwrel_fpzip::FpzipCompressor;
use pwrel_isabela::IsabelaCompressor;
use pwrel_kernels::LogFusedCodec;
use pwrel_sz::SzCompressor;
use pwrel_trace::{stage, Recorder, Span};
use pwrel_zfp::ZfpCompressor;

/// Erases the element type of a typed decode result.
fn erased<F>(r: Result<(Vec<F>, Dims), CodecError>) -> Result<(ElemVec, Dims), CodecError>
where
    ElemVec: From<Vec<F>>,
{
    r.map(|(v, dims)| (v.into(), dims))
}

/// The paper's transform scheme around `inner`, compressed through the
/// fused single-pass sweep.
fn compress_t<C>(
    inner: C,
    data: Elems<'_>,
    dims: Dims,
    opts: &CompressOpts,
    rec: &dyn Recorder,
) -> Result<Vec<u8>, CodecError>
where
    C: LogFusedCodec<f32> + LogFusedCodec<f64>,
{
    let c = PwRelCompressor::new(inner, opts.base);
    let kernel = Kernel::from_env();
    match data {
        Elems::F32(d) => c.compress_fused(d, dims, opts.bound, kernel, rec),
        Elems::F64(d) => c.compress_fused(d, dims, opts.bound, kernel, rec),
    }
}

/// Decodes a [`compress_t`] payload around `inner`.
fn decompress_t<C>(
    inner: C,
    payload: &[u8],
    elem: ElemType,
    rec: &dyn Recorder,
) -> Result<(ElemVec, Dims), CodecError>
where
    C: AbsErrorCodec<f32> + AbsErrorCodec<f64>,
{
    // The base is read from the payload; the constructor's base is a
    // compile-side default.
    let c = PwRelCompressor::new(inner, LogBase::Two);
    match elem {
        ElemType::F32 => erased(c.decompress_full::<f32>(payload, rec)),
        ElemType::F64 => erased(c.decompress_full::<f64>(payload, rec)),
    }
}

/// SZ_T / SZ_HYBRID_T: the paper's transform scheme around the SZ-like
/// codec, fused single-pass compression.
#[derive(Debug, Clone, Copy)]
pub struct SzT {
    /// Use the hybrid Lorenzo/regression predictor.
    pub hybrid: bool,
}

impl SzT {
    fn config(&self) -> SzCompressor {
        SzCompressor {
            hybrid_predictor: self.hybrid,
            ..SzCompressor::default()
        }
    }
}

impl Codec for SzT {
    fn id(&self) -> u8 {
        if self.hybrid {
            2
        } else {
            1
        }
    }

    fn name(&self) -> &'static str {
        if self.hybrid {
            "sz_hybrid_t"
        } else {
            "sz_t"
        }
    }

    fn describe(&self) -> &'static str {
        if self.hybrid {
            "log transform + SZ with hybrid Lorenzo/regression predictor"
        } else {
            "log transform + SZ (the paper's SZ_T)"
        }
    }

    fn stages(&self) -> &'static [&'static str] {
        if self.hybrid {
            // The hybrid coder is block-structured and reports as one
            // encode stage; the transform and sign stages still apply.
            &[stage::TRANSFORM, stage::ENCODE, stage::SIGNS]
        } else {
            &[
                stage::TRANSFORM,
                stage::PREDICT_QUANTIZE,
                stage::HUFFMAN,
                stage::LZ,
                stage::SIGNS,
            ]
        }
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        compress_t(self.config(), data, dims, opts, rec)
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        decompress_t(self.config(), payload, elem, rec)
    }
}

/// ZFP_T: the transform scheme around the ZFP-like codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpT;

impl Codec for ZfpT {
    fn id(&self) -> u8 {
        3
    }

    fn name(&self) -> &'static str {
        "zfp_t"
    }

    fn describe(&self) -> &'static str {
        "log transform + ZFP fixed-accuracy (the paper's ZFP_T)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            stage::TRANSFORM,
            stage::LIFT,
            stage::PLANE_CODE,
            stage::SIGNS,
        ]
    }

    // Align framed chunks with ZFP's 4^d blocks so interior chunks pay
    // no edge-padding overhead.
    fn chunk_granularity(&self) -> usize {
        4
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        compress_t(ZfpCompressor, data, dims, opts, rec)
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        decompress_t(ZfpCompressor, payload, elem, rec)
    }
}

/// Bare SZ with an absolute bound (`opts.bound` is absolute, not
/// relative).
#[derive(Debug, Clone, Copy, Default)]
pub struct SzAbs;

impl Codec for SzAbs {
    fn id(&self) -> u8 {
        4
    }

    fn name(&self) -> &'static str {
        "sz_abs"
    }

    fn describe(&self) -> &'static str {
        "SZ with an absolute error bound"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::PREDICT_QUANTIZE, stage::HUFFMAN, stage::LZ]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let sz = SzCompressor::default();
        match data {
            Elems::F32(d) => sz.compress_abs_traced(d, dims, opts.bound, rec),
            Elems::F64(d) => sz.compress_abs_traced(d, dims, opts.bound, rec),
        }
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        let sz = SzCompressor::default();
        match elem {
            ElemType::F32 => erased(sz.decompress_traced::<f32>(payload, rec)),
            ElemType::F64 => erased(sz.decompress_traced::<f64>(payload, rec)),
        }
    }
}

/// SZ 1.4's blockwise point-wise-relative mode (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct SzPwr;

impl Codec for SzPwr {
    fn id(&self) -> u8 {
        5
    }

    fn name(&self) -> &'static str {
        "sz_pwr"
    }

    fn describe(&self) -> &'static str {
        "SZ blockwise point-wise-relative mode (SZ_PWR baseline)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        // PWR routes per-block through internal engines; not internally
        // instrumented, so it reports as one encode stage.
        let _enc = Span::enter(rec, stage::ENCODE);
        let sz = SzCompressor::default();
        match data {
            Elems::F32(d) => sz.compress_pwr(d, dims, opts.bound),
            Elems::F64(d) => sz.compress_pwr(d, dims, opts.bound),
        }
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        let sz = SzCompressor::default();
        match elem {
            ElemType::F32 => erased(sz.decompress::<f32>(payload)),
            ElemType::F64 => erased(sz.decompress::<f64>(payload)),
        }
    }
}

/// FPZIP at the precision matching the requested relative bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpzip;

impl Codec for Fpzip {
    fn id(&self) -> u8 {
        6
    }

    fn name(&self) -> &'static str {
        "fpzip"
    }

    fn describe(&self) -> &'static str {
        "FPZIP truncated-precision predictive coder"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        match data {
            Elems::F32(d) => FpzipCompressor::for_rel_bound::<f32>(opts.bound).compress(d, dims),
            Elems::F64(d) => FpzipCompressor::for_rel_bound::<f64>(opts.bound).compress(d, dims),
        }
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        match elem {
            ElemType::F32 => erased(pwrel_fpzip::decompress::<f32>(payload)),
            ElemType::F64 => erased(pwrel_fpzip::decompress::<f64>(payload)),
        }
    }
}

/// ISABELA B-spline fitting with a point-wise relative bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isabela;

impl Codec for Isabela {
    fn id(&self) -> u8 {
        7
    }

    fn name(&self) -> &'static str {
        "isabela"
    }

    fn describe(&self) -> &'static str {
        "ISABELA sort-and-spline compressor"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::ENCODE]
    }

    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_INTERLEAVED
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        let isabela = IsabelaCompressor::default();
        match data {
            Elems::F32(d) => isabela.compress_rel(d, dims, opts.bound),
            Elems::F64(d) => isabela.compress_rel(d, dims, opts.bound),
        }
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        let _enc = Span::enter(rec, stage::ENCODE);
        match elem {
            ElemType::F32 => erased(pwrel_isabela::decompress::<f32>(payload)),
            ElemType::F64 => erased(pwrel_isabela::decompress::<f64>(payload)),
        }
    }
}

/// Bare ZFP at the fixed precision matching the requested relative
/// bound (no point-wise guarantee; kept for the paper's comparisons).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpP;

impl Codec for ZfpP {
    fn id(&self) -> u8 {
        8
    }

    fn name(&self) -> &'static str {
        "zfp_p"
    }

    fn describe(&self) -> &'static str {
        "ZFP fixed-precision mode (ZFP_P comparison point)"
    }

    fn stages(&self) -> &'static [&'static str] {
        &[stage::LIFT, stage::PLANE_CODE]
    }

    // Same 4^d block alignment as `ZfpT`.
    fn chunk_granularity(&self) -> usize {
        4
    }

    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let precision = pwrel_zfp::precision_for_rel_bound(opts.bound);
        match data {
            Elems::F32(d) => ZfpCompressor.compress_precision_traced(d, dims, precision, rec),
            Elems::F64(d) => ZfpCompressor.compress_precision_traced(d, dims, precision, rec),
        }
    }

    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError> {
        match elem {
            ElemType::F32 => erased(ZfpCompressor.decompress_traced::<f32>(payload, rec)),
            ElemType::F64 => erased(ZfpCompressor.decompress_traced::<f64>(payload, rec)),
        }
    }
}
