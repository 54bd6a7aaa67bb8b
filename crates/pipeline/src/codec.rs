//! The object-safe whole-codec trait and the element-type erasure it
//! dispatches through.

use pwrel_core::LogBase;
use pwrel_data::{CodecError, Dims, Float};
use pwrel_trace::Recorder;

/// Per-run compression options shared by every registered codec.
///
/// `bound` is interpreted by the codec: a point-wise relative bound for
/// the transform-wrapped and PWR codecs, an absolute bound for `sz_abs`.
/// `base` only matters to the log-transform codecs; the rest ignore it.
#[derive(Debug, Clone, Copy)]
pub struct CompressOpts {
    /// Error bound (codec-interpreted, see above).
    pub bound: f64,
    /// Logarithm base for the transform-wrapped codecs.
    pub base: LogBase,
}

impl CompressOpts {
    /// Options with the given bound and the paper's default base 2.
    pub fn rel(bound: f64) -> Self {
        Self {
            bound,
            base: LogBase::Two,
        }
    }
}

/// Element type of a field crossing the [`Codec`] boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// `f32` elements.
    F32,
    /// `f64` elements.
    F64,
}

/// Input field with its element type erased.
#[derive(Debug, Clone, Copy)]
pub enum Elems<'a> {
    /// `f32` data.
    F32(&'a [f32]),
    /// `f64` data.
    F64(&'a [f64]),
}

/// Decoded field with its element type erased.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemVec {
    /// `f32` data.
    F32(Vec<f32>),
    /// `f64` data.
    F64(Vec<f64>),
}

impl From<Vec<f32>> for ElemVec {
    fn from(v: Vec<f32>) -> Self {
        ElemVec::F32(v)
    }
}

impl From<Vec<f64>> for ElemVec {
    fn from(v: Vec<f64>) -> Self {
        ElemVec::F64(v)
    }
}

/// An error-bounded compression pipeline as one dispatchable unit.
///
/// Object safety is the point: registries hold `Box<dyn Codec>` and the
/// CLI / bench / chunker route through them without per-codec match
/// arms. The element type is erased at this boundary ([`Elems`],
/// [`ElemType`], [`ElemVec`]) instead of doubling every method per type;
/// [`PipelineElem`] converts for callers generic over the element type.
///
/// The payload produced by [`Codec::compress`] is the codec's native
/// self-describing stream; the registry wraps it in the unified
/// container (see [`crate::container`]) or a framed stream's frames (see
/// [`crate::stream`]), so implementations never deal with an outer
/// header. Both directions take a recorder; pass [`pwrel_trace::noop`]
/// for an untraced call. A recorder only observes: the bytes are the
/// same either way.
pub trait Codec: Send + Sync {
    /// Stable stream id recorded in the container header.
    fn id(&self) -> u8;

    /// Registry lookup name (what `--codec` takes on the CLI).
    fn name(&self) -> &'static str;

    /// One-line human description for codec listings.
    fn describe(&self) -> &'static str;

    /// The stage spans this codec emits when run with a live recorder —
    /// the contract the trace exporters and the coverage tests check
    /// against. Constants come from [`pwrel_trace::stage`]. The default
    /// (empty) declares "uninstrumented": the registry still wraps the
    /// run in its root span, but no per-stage breakdown is promised.
    fn stages(&self) -> &'static [&'static str] {
        &[]
    }

    /// Preferred slice multiple (along the slowest axis) for framed
    /// chunking. The block-structured codecs override this so chunk
    /// boundaries align with their native blocks (ZFP: 4) instead of
    /// paying edge-padding overhead in every chunk.
    fn chunk_granularity(&self) -> usize {
        1
    }

    /// Sub-stream count of the codec's quantization-code entropy stage,
    /// recorded in the v2 container and stream headers: 1 for codecs
    /// without an interleaved Huffman stage, [`huffman::LANES`] for the
    /// codecs whose payloads carry 4-way interleaved symbol streams.
    /// Advisory — payloads self-describe — but lets `pwrel info` report
    /// the engine without decoding.
    ///
    /// [`huffman::LANES`]: pwrel_lossless::huffman::LANES
    fn entropy_mode(&self) -> u8 {
        crate::container::ENTROPY_MODE_SINGLE
    }

    /// Compresses `data` (shaped `dims`) under `opts` into the codec's
    /// native payload.
    fn compress(
        &self,
        data: Elems<'_>,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError>;

    /// Decompresses a payload produced by [`Codec::compress`] as `elem`
    /// data. A payload of the other element type is
    /// [`CodecError::Mismatch`].
    fn decompress(
        &self,
        payload: &[u8],
        elem: ElemType,
        rec: &dyn Recorder,
    ) -> Result<(ElemVec, Dims), CodecError>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element types the pipeline can route through a `dyn Codec`: the
/// conversions between a generic `F` and the erased [`Codec`] boundary.
pub trait PipelineElem: Float + sealed::Sealed {
    /// This type's tag.
    const ELEM: ElemType;

    /// Erases the element type of `data`.
    fn erase(data: &[Self]) -> Elems<'_>;

    /// Recovers this element type from a decoded field; a field of the
    /// other type is [`CodecError::Mismatch`].
    fn unerase(data: ElemVec) -> Result<Vec<Self>, CodecError>;
}

const WRONG_ELEM: CodecError = CodecError::Mismatch("codec decoded the wrong element type");

impl PipelineElem for f32 {
    const ELEM: ElemType = ElemType::F32;

    fn erase(data: &[f32]) -> Elems<'_> {
        Elems::F32(data)
    }

    fn unerase(data: ElemVec) -> Result<Vec<f32>, CodecError> {
        match data {
            ElemVec::F32(v) => Ok(v),
            ElemVec::F64(_) => Err(WRONG_ELEM),
        }
    }
}

impl PipelineElem for f64 {
    const ELEM: ElemType = ElemType::F64;

    fn erase(data: &[f64]) -> Elems<'_> {
        Elems::F64(data)
    }

    fn unerase(data: ElemVec) -> Result<Vec<f64>, CodecError> {
        match data {
            ElemVec::F64(v) => Ok(v),
            ElemVec::F32(_) => Err(WRONG_ELEM),
        }
    }
}
