#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Codec registry and unified container for every pipeline in the
//! workspace.
//!
//! The paper's transformation scheme is generic — it wraps *any*
//! absolute-error-bounded compressor — and this crate is where that
//! genericity becomes operational:
//!
//! * [`Codec`] is the object-safe whole-codec contract: one `compress`
//!   and one `decompress`, element type erased at the boundary so
//!   registries can hold `Box<dyn Codec>`,
//! * [`CodecRegistry`] maps codec ids and names to implementations and
//!   owns the compress/decompress dispatch,
//! * [`container`] defines the one versioned self-describing outer
//!   header (`magic | version | codec id | elem | dims | bound
//!   metadata`) every registered codec's stream is wrapped in,
//! * [`legacy`] keeps pre-registry streams decodable by sniffing the old
//!   per-codec magics,
//! * [`stream`] is the framed streaming layer: a stream header plus
//!   self-describing per-chunk frames so whole fields compress and
//!   decompress through chunk sources/sinks with bounded memory
//!   (`compress_stream`/`decompress_stream` on [`CodecRegistry`]).
//!
//! The stage traits the codecs are assembled from (`Transform`,
//! `Predictor`, `Quantizer`, `Encoder`, `LosslessStage`, …) live in
//! `pwrel-data` so the codec crates can implement them without a
//! dependency cycle; this crate sits above the codecs and only composes.

pub mod codec;
pub mod codecs;
pub mod container;
pub mod legacy;
pub mod registry;
pub mod stream;

pub use codec::{Codec, CompressOpts, ElemType, ElemVec, Elems, PipelineElem};
pub use container::{
    ContainerHeader, CONTAINER_MAGIC, CONTAINER_VERSION, ENTROPY_MODE_INTERLEAVED,
    ENTROPY_MODE_SINGLE,
};
pub use legacy::{identify, StreamInfo, StreamKind};
pub use registry::{global, CodecRegistry};
pub use stream::{
    BufferPool, ChunkPlan, ChunkSink, ChunkSource, FrameHeader, FrameWalker, ReadSource,
    SliceSource, StreamHeader, StreamStats, VecSink, WriteSink, STREAM_MAGIC, STREAM_VERSION,
};
