//! SZ container format.
//!
//! Layout of the flat payload:
//!
//! ```text
//! magic "SZR1" | float_bits u8 | mode u8 | rank u8 | nx ny nz uvarint
//! capacity uvarint
//! mode=Abs: eb f64
//! mode=Pwr: rel_bound f64 | block_len uvarint | n_blocks uvarint
//!           | per-block exponent ivarint...
//! codes_len uvarint | huffman-coded quantization codes (codes_len bytes)
//! n_unpred uvarint | unpred_len uvarint | packed unpredictable values
//! ```
//!
//! The payload is stored behind a one-byte wrapper:
//!
//! * `0`: raw, `[0u8] ++ payload`.
//! * `1`: whole-payload LZ, `[1u8] ++ lz(payload)`.
//! * `2`: sectioned,
//!   `[2u8] | uvarint head_len | uvarint body_len | body | lz(head ++ tail)`.
//!
//! For the sectioned wrapper the payload is cut into three parts, so that
//! `head ++ body ++ tail` is the flat payload:
//!
//! * `head`: everything up to and including the Huffman code table and the
//!   interleaved descriptor;
//! * `body`: the concatenated Huffman sub-stream bytes (empty for a legacy
//!   single-stream code block);
//! * `tail`: `n_unpred` and the unpredictable store.
//!
//! SZ's optional gzip stage (stage III) mostly pays on the code table and
//! the unpredictable store. The interleaved sub-streams are already
//! entropy-coded: on NYX velocity_x, HACC velocity_x and CESM U850 every
//! byte a whole-payload LZ pass saved came from the first 16 KiB, which is
//! the code table (13.4 KB of 2.36 MB, 9.8 of 2.57 and 9.5 of 1.60), and
//! the ~2 MB of sub-stream bytes behind it saved nothing. On CESM CLDLOW
//! the saving sits in the 198 KB unpredictable store at the tail. So the
//! body stays raw and LZ runs over `head ++ tail` only, at a small fraction
//! of the cost.
//!
//! The exception is a code dominated by one short codeword (smooth data at
//! a loose bound): its body is long runs, and keeping it raw would cost up
//! to hundreds of times the size. Payloads up to `TRY_BOTH_MAX` try both
//! LZ wrappers and keep the smaller; larger ones take wrapper `1` when the
//! body's byte entropy says it is compressible (`body_compresses`), else
//! wrapper `2`. Wrapper `0` is written when the chosen form is not smaller,
//! or when the lossless pass is off. The decoder reads all three wrappers
//! forever, so every stream ever written still decodes.

use crate::stages::LzStage;
use pwrel_bitstream::{bytesio, varint};
use pwrel_data::{CodecError, Dims, LosslessStage};

const MAGIC: &[u8; 4] = b"SZR1";

/// Wrapper bytes (see the module doc).
const WRAP_RAW: u8 = 0;
const WRAP_LZ: u8 = 1;
const WRAP_SECTIONED: u8 = 2;

/// Flat payloads up to this size (wrapper byte included) try both LZ
/// wrappers and keep the smaller; the second pass costs at most about
/// 1.5 ms here (dense input, 2-CPU Xeon).
const TRY_BOTH_MAX: usize = 64 * 1024;

/// Whether the Huffman body is worth a whole-payload LZ pass, judged by
/// its order-0 byte entropy. The sub-streams of a spread-out code are
/// dense: their bytes are near-uniform (at least 7.96 bits each for NYX
/// density and velocity, HACC velocity and CESM cloud and wind fields at
/// b_r = 1e-3) and LZ saves nothing on them.
/// A code whose centre bin takes most points (smooth data at a loose
/// bound) leaves skewed bytes and runs, which LZ shrinks by 1% up to 99%.
/// Below 7.95 bits per byte the writer takes the whole-payload wrapper.
fn body_compresses(body: &[u8]) -> bool {
    let mut hist = [0u64; 256];
    for &b in body {
        hist[usize::from(b)] += 1;
    }
    let n = body.len() as f64;
    let (mut bits, mut used) = (0.0f64, 0u32);
    for &c in hist.iter().filter(|&&c| c > 0) {
        let p = c as f64 / n;
        bits -= p * p.log2();
        used += 1;
    }
    // Miller-Madow correction: the plug-in estimate runs low by about
    // (used - 1) / (2 n ln 2) bits, which would push every short dense
    // body under the threshold.
    bits += f64::from(used.saturating_sub(1)) / (2.0 * n * std::f64::consts::LN_2);
    !body.is_empty() && bits < 7.95
}

/// Error-bound mode recorded in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SzMode {
    /// Absolute bound.
    Abs {
        /// The bound every point respects.
        eb: f64,
    },
    /// Blockwise point-wise-relative bound (SZ_PWR).
    Pwr {
        /// The requested relative bound (kept for reporting).
        rel_bound: f64,
        /// Points per block, raster order.
        block_len: u64,
        /// Power-of-two exponent of each block's absolute bound.
        block_exps: Vec<i32>,
    },
    /// Blockwise point-wise-relative bound over 6^d *spatial* blocks
    /// (rank ≥ 2; the DRBSD-2 design for multidimensional data).
    PwrSpatial {
        /// The requested relative bound (kept for reporting).
        rel_bound: f64,
        /// Power-of-two exponent of each spatial block's absolute bound.
        block_exps: Vec<i32>,
    },
    /// Absolute bound with the hybrid Lorenzo/regression predictor
    /// (SZ 2-style extension; see `regression`).
    AbsHybrid {
        /// The bound every point respects.
        eb: f64,
        /// One bit per block: 1 = regression, 0 = Lorenzo (packed LSB
        /// first within each byte).
        selectors: Vec<u8>,
        /// Number of blocks (governs the selector bitmap length).
        n_blocks: u64,
        /// Serialized `LinearModel`s for the regression blocks, in block
        /// order.
        model_bytes: Vec<u8>,
    },
}

/// Parsed SZ container.
#[derive(Debug, Clone)]
pub struct SzStream {
    /// 32 or 64.
    pub float_bits: u8,
    /// Grid shape.
    pub dims: Dims,
    /// Quantization interval count.
    pub capacity: u32,
    /// Error-bound mode.
    pub mode: SzMode,
    /// Self-contained Huffman block of quantization codes.
    pub codes_buf: Vec<u8>,
    /// Number of unpredictable (escaped) values.
    pub n_unpred: u64,
    /// Bit-packed unpredictable values (see `unpred`).
    pub unpred_bytes: Vec<u8>,
}

impl SzStream {
    /// Serializes, optionally trying the sectioned LZ wrapper.
    pub fn serialize(&self, lossless_pass: bool) -> Vec<u8> {
        self.serialize_traced(lossless_pass, pwrel_trace::noop())
    }

    /// [`SzStream::serialize`] with the wrapper decision and LZ pass
    /// attributed to the [`pwrel_trace::stage::LZ`] span. The span is
    /// emitted even when the pass is disabled or declined, so stage
    /// coverage does not depend on the data.
    pub fn serialize_traced(
        &self,
        lossless_pass: bool,
        rec: &dyn pwrel_trace::Recorder,
    ) -> Vec<u8> {
        // `ht` collects head ++ tail; the body is only copied into the
        // wrapped output that carries it.
        let (desc, body) = pwrel_lossless::huffman::split_payload(&self.codes_buf)
            .unwrap_or((&self.codes_buf, &[]));
        let mut ht = Vec::with_capacity(desc.len() + self.unpred_bytes.len() + 64);
        self.write_header(&mut ht);
        varint::write_uvarint(&mut ht, self.codes_buf.len() as u64);
        ht.extend_from_slice(desc);
        let head_len = ht.len();
        varint::write_uvarint(&mut ht, self.n_unpred);
        varint::write_uvarint(&mut ht, self.unpred_bytes.len() as u64);
        ht.extend_from_slice(&self.unpred_bytes);

        let _lz = pwrel_trace::Span::enter(rec, pwrel_trace::stage::LZ);
        let (head, tail) = ht.split_at(head_len);
        let raw_len = 1 + ht.len() + body.len();
        if lossless_pass {
            // Small payloads try both LZ forms (cheap); larger ones pick
            // one from the body's byte statistics. A code dominated by one
            // short codeword leaves runs in the body that only the
            // whole-payload pass can take.
            let small = raw_len <= TRY_BOTH_MAX;
            let skewed = !small && body_compresses(body);
            let mut best = None;
            if small || !skewed {
                let packed = LzStage.compress(&ht);
                let mut out = Vec::with_capacity(20 + body.len() + packed.len());
                out.push(WRAP_SECTIONED);
                varint::write_uvarint(&mut out, head_len as u64);
                varint::write_uvarint(&mut out, body.len() as u64);
                out.extend_from_slice(body);
                out.extend_from_slice(&packed);
                best = Some(out);
            }
            if small || skewed {
                let packed = LzStage.compress(&[head, body, tail].concat());
                if best
                    .as_ref()
                    .is_none_or(|b: &Vec<u8>| 1 + packed.len() < b.len())
                {
                    let mut out = Vec::with_capacity(1 + packed.len());
                    out.push(WRAP_LZ);
                    out.extend_from_slice(&packed);
                    best = Some(out);
                }
            }
            if let Some(out) = best.filter(|out| out.len() < raw_len) {
                return out;
            }
        }
        let mut out = Vec::with_capacity(raw_len);
        out.push(WRAP_RAW);
        out.extend_from_slice(head);
        out.extend_from_slice(body);
        out.extend_from_slice(tail);
        out
    }

    /// Writes the flat payload's header: magic, widths, dims, capacity and
    /// the mode's parameters.
    fn write_header(&self, p: &mut Vec<u8>) {
        p.extend_from_slice(MAGIC);
        p.push(self.float_bits);
        let (rank, nx, ny, nz) = self.dims.to_header();
        match &self.mode {
            SzMode::Abs { eb } => {
                p.push(0);
                p.push(rank);
                varint::write_uvarint(p, nx);
                varint::write_uvarint(p, ny);
                varint::write_uvarint(p, nz);
                varint::write_uvarint(p, self.capacity as u64);
                bytesio::put_f64(p, *eb);
            }
            SzMode::Pwr {
                rel_bound,
                block_len,
                block_exps,
            } => {
                p.push(1);
                p.push(rank);
                varint::write_uvarint(p, nx);
                varint::write_uvarint(p, ny);
                varint::write_uvarint(p, nz);
                varint::write_uvarint(p, self.capacity as u64);
                bytesio::put_f64(p, *rel_bound);
                varint::write_uvarint(p, *block_len);
                varint::write_uvarint(p, block_exps.len() as u64);
                let mut prev = 0i64;
                for &e in block_exps {
                    varint::write_ivarint(p, e as i64 - prev);
                    prev = e as i64;
                }
            }
            SzMode::PwrSpatial {
                rel_bound,
                block_exps,
            } => {
                p.push(3);
                p.push(rank);
                varint::write_uvarint(p, nx);
                varint::write_uvarint(p, ny);
                varint::write_uvarint(p, nz);
                varint::write_uvarint(p, self.capacity as u64);
                bytesio::put_f64(p, *rel_bound);
                varint::write_uvarint(p, block_exps.len() as u64);
                let mut prev = 0i64;
                for &e in block_exps {
                    varint::write_ivarint(p, e as i64 - prev);
                    prev = e as i64;
                }
            }
            SzMode::AbsHybrid {
                eb,
                selectors,
                n_blocks,
                model_bytes,
            } => {
                p.push(2);
                p.push(rank);
                varint::write_uvarint(p, nx);
                varint::write_uvarint(p, ny);
                varint::write_uvarint(p, nz);
                varint::write_uvarint(p, self.capacity as u64);
                bytesio::put_f64(p, *eb);
                varint::write_uvarint(p, *n_blocks);
                p.extend_from_slice(selectors);
                varint::write_uvarint(p, model_bytes.len() as u64);
                p.extend_from_slice(model_bytes);
            }
        }
    }

    /// Parses a stream produced by [`SzStream::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::deserialize_traced(bytes, pwrel_trace::noop())
    }

    /// [`SzStream::deserialize`] with the LZ unwrap attributed to the
    /// [`pwrel_trace::stage::LZ`] span (emitted for every wrapper kind).
    pub fn deserialize_traced(
        bytes: &[u8],
        rec: &dyn pwrel_trace::Recorder,
    ) -> Result<Self, CodecError> {
        let (&wrapper, rest) = bytes
            .split_first()
            .ok_or(CodecError::Corrupt("empty stream"))?;
        let unpacked;
        let sections = {
            let _lz = pwrel_trace::Span::enter(rec, pwrel_trace::stage::LZ);
            match wrapper {
                WRAP_RAW => Sections::Flat(rest),
                WRAP_LZ => {
                    unpacked = LzStage.decompress(rest)?;
                    Sections::Flat(&unpacked)
                }
                WRAP_SECTIONED => {
                    let mut pos = 0usize;
                    let head_len = varint::read_uvarint(rest, &mut pos)?;
                    let body_len = varint::read_uvarint(rest, &mut pos)?;
                    let after = rest.get(pos..).ok_or(CodecError::Corrupt("eof"))?;
                    let (body, packed) = usize::try_from(body_len)
                        .ok()
                        .and_then(|len| after.split_at_checked(len))
                        .ok_or(CodecError::Corrupt("sectioned body exceeds stream"))?;
                    unpacked = LzStage.decompress(packed)?;
                    let (head, tail) = usize::try_from(head_len)
                        .ok()
                        .and_then(|len| unpacked.split_at_checked(len))
                        .ok_or(CodecError::Corrupt("sectioned head exceeds LZ output"))?;
                    Sections::Split { head, body, tail }
                }
                _ => return Err(CodecError::Corrupt("unknown wrapper byte")),
            }
        };
        let p = match sections {
            Sections::Flat(p) => p,
            Sections::Split { head, .. } => head,
        };

        if !p.starts_with(MAGIC) {
            return Err(CodecError::Mismatch("bad SZ magic"));
        }
        let mut pos = 4usize;
        let float_bits = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        if float_bits != 32 && float_bits != 64 {
            return Err(CodecError::Corrupt("bad float width"));
        }
        let mode_byte = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        let rank = *p.get(pos).ok_or(CodecError::Corrupt("eof"))?;
        pos += 1;
        let nx = varint::read_uvarint(p, &mut pos)?;
        let ny = varint::read_uvarint(p, &mut pos)?;
        let nz = varint::read_uvarint(p, &mut pos)?;
        let dims =
            Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims header"))?;
        let capacity = varint::read_uvarint(p, &mut pos)? as u32;
        if capacity < 4 || !capacity.is_multiple_of(2) {
            return Err(CodecError::Corrupt("bad capacity"));
        }

        let mode = match mode_byte {
            0 => SzMode::Abs {
                eb: bytesio::get_f64(p, &mut pos)?,
            },
            1 => {
                let rel_bound = bytesio::get_f64(p, &mut pos)?;
                let block_len = varint::read_uvarint(p, &mut pos)?;
                if block_len == 0 {
                    return Err(CodecError::Corrupt("zero block_len"));
                }
                let n_blocks = varint::read_uvarint(p, &mut pos)? as usize;
                let expected = dims.len().div_ceil(block_len as usize);
                if n_blocks != expected {
                    return Err(CodecError::Corrupt("block count mismatch"));
                }
                // n_blocks is untrusted; each exponent costs ≥1 byte, so
                // cap the reservation and let varint EOF stop bad claims.
                let mut block_exps = Vec::with_capacity(n_blocks.min(1 << 20));
                let mut prev = 0i64;
                for _ in 0..n_blocks {
                    prev += varint::read_ivarint(p, &mut pos)?;
                    if !(-2000..=2000).contains(&prev) {
                        return Err(CodecError::Corrupt("block exponent out of range"));
                    }
                    block_exps.push(prev as i32);
                }
                SzMode::Pwr {
                    rel_bound,
                    block_len,
                    block_exps,
                }
            }
            3 => {
                let rel_bound = bytesio::get_f64(p, &mut pos)?;
                let n_blocks = varint::read_uvarint(p, &mut pos)? as usize;
                // Count without allocating: dims are untrusted.
                if n_blocks as u64 != crate::regression::block_count(dims) {
                    return Err(CodecError::Corrupt("spatial block count mismatch"));
                }
                // Each exponent costs ≥ 1 byte in the stream.
                if n_blocks > p.len() {
                    return Err(CodecError::Corrupt("spatial block count exceeds payload"));
                }
                let mut block_exps = Vec::with_capacity(n_blocks.min(1 << 20));
                let mut prev = 0i64;
                for _ in 0..n_blocks {
                    prev += varint::read_ivarint(p, &mut pos)?;
                    if !(-2000..=2000).contains(&prev) {
                        return Err(CodecError::Corrupt("block exponent out of range"));
                    }
                    block_exps.push(prev as i32);
                }
                SzMode::PwrSpatial {
                    rel_bound,
                    block_exps,
                }
            }
            2 => {
                let eb = bytesio::get_f64(p, &mut pos)?;
                let n_blocks = varint::read_uvarint(p, &mut pos)?;
                // One selector bit per block; count without allocating
                // (dims are untrusted) and bound by the remaining payload.
                if n_blocks != crate::regression::block_count(dims) {
                    return Err(CodecError::Corrupt("hybrid block count mismatch"));
                }
                if n_blocks.div_ceil(8) > p.len() as u64 {
                    return Err(CodecError::Corrupt(
                        "hybrid selector bitmap exceeds payload",
                    ));
                }
                let sel_bytes = (n_blocks as usize).div_ceil(8);
                let selectors = bytesio::get_bytes(p, &mut pos, sel_bytes)?.to_vec();
                let model_len = varint::read_uvarint(p, &mut pos)? as usize;
                let model_bytes = bytesio::get_bytes(p, &mut pos, model_len)?.to_vec();
                SzMode::AbsHybrid {
                    eb,
                    selectors,
                    n_blocks,
                    model_bytes,
                }
            }
            _ => return Err(CodecError::Corrupt("unknown mode")),
        };

        // The code block: contiguous in a flat payload, split into the
        // head's table/descriptor and the raw body in a sectioned one.
        let codes_len = varint::read_uvarint(p, &mut pos)?;
        let (codes_buf, t, mut pos) = match sections {
            Sections::Flat(p) => {
                let codes_len = usize::try_from(codes_len)
                    .map_err(|_| CodecError::Corrupt("code block length overflows"))?;
                (bytesio::get_bytes(p, &mut pos, codes_len)?.to_vec(), p, pos)
            }
            Sections::Split { head, body, tail } => {
                let desc = head.get(pos..).ok_or(CodecError::Corrupt("eof"))?;
                if desc.len() as u64 + body.len() as u64 != codes_len {
                    return Err(CodecError::Corrupt("sectioned code block length mismatch"));
                }
                let mut codes = Vec::with_capacity(desc.len() + body.len());
                codes.extend_from_slice(desc);
                codes.extend_from_slice(body);
                (codes, tail, 0)
            }
        };
        let n_unpred = varint::read_uvarint(t, &mut pos)?;
        let unpred_len = varint::read_uvarint(t, &mut pos)? as usize;
        let unpred_bytes = bytesio::get_bytes(t, &mut pos, unpred_len)?.to_vec();
        // Each packed value costs at least 2 bits; cross-check the count.
        if n_unpred > unpred_bytes.len() as u64 * 8 {
            return Err(CodecError::Corrupt("unpredictable count exceeds payload"));
        }

        Ok(Self {
            float_bits,
            dims,
            capacity,
            mode,
            codes_buf,
            n_unpred,
            unpred_bytes,
        })
    }
}

/// A payload as the wrapper delivered it: flat, or cut into the sectioned
/// wrapper's head, raw body and tail (see the module doc).
#[derive(Clone, Copy)]
enum Sections<'a> {
    Flat(&'a [u8]),
    Split {
        head: &'a [u8],
        body: &'a [u8],
        tail: &'a [u8],
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mode: SzMode) -> SzStream {
        SzStream {
            float_bits: 32,
            dims: Dims::d2(3, 5),
            capacity: 1024,
            mode,
            codes_buf: vec![1, 2, 3, 4, 5],
            n_unpred: 2,
            unpred_bytes: vec![0u8; 8],
        }
    }

    #[test]
    fn abs_round_trip_both_wrappers() {
        let s = sample(SzMode::Abs { eb: 0.125 });
        for lossless in [false, true] {
            let bytes = s.serialize(lossless);
            let back = SzStream::deserialize(&bytes).unwrap();
            assert_eq!(back.float_bits, 32);
            assert_eq!(back.dims, Dims::d2(3, 5));
            assert_eq!(back.capacity, 1024);
            assert_eq!(back.mode, SzMode::Abs { eb: 0.125 });
            assert_eq!(back.codes_buf, s.codes_buf);
            assert_eq!(back.unpred_bytes, s.unpred_bytes);
        }
    }

    #[test]
    fn pwr_round_trip_with_exponents() {
        let s = SzStream {
            float_bits: 64,
            dims: Dims::d1(1000),
            capacity: 65536,
            mode: SzMode::Pwr {
                rel_bound: 1e-3,
                block_len: 256,
                block_exps: vec![-10, -12, -8, -40],
            },
            codes_buf: vec![9; 100],
            n_unpred: 2,
            unpred_bytes: vec![1u8; 16],
        };
        let bytes = s.serialize(true);
        let back = SzStream::deserialize(&bytes).unwrap();
        assert_eq!(back.mode, s.mode);
        assert_eq!(back.float_bits, 64);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let s = sample(SzMode::Abs { eb: 1.0 });
        let mut bytes = s.serialize(false);
        bytes[1] = b'X';
        assert!(SzStream::deserialize(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let s = sample(SzMode::Abs { eb: 1.0 });
        let bytes = s.serialize(false);
        for cut in [0, 3, 8, bytes.len() - 2] {
            assert!(SzStream::deserialize(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// A stream whose code block is a real interleaved Huffman buffer over
    /// `symbols`, with a compressible unpredictable store.
    fn coded(symbols: &[u32]) -> SzStream {
        SzStream {
            float_bits: 32,
            dims: Dims::d1(symbols.len()),
            capacity: 1024,
            mode: SzMode::Abs { eb: 0.5 },
            codes_buf: pwrel_lossless::huffman::encode_symbols(symbols, 1024),
            n_unpred: 64,
            unpred_bytes: (0..512u32).map(|i| (i % 7) as u8).collect(),
        }
    }

    /// Pseudo-random codes spread over 200 bins: a dense body.
    fn spread_symbols(n: usize) -> Vec<u32> {
        let mut x = 0x2545_F491u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                412 + x % 200
            })
            .collect()
    }

    fn assert_same(a: &SzStream, b: &SzStream) {
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.codes_buf, b.codes_buf);
        assert_eq!(a.n_unpred, b.n_unpred);
        assert_eq!(a.unpred_bytes, b.unpred_bytes);
    }

    #[test]
    fn dense_body_takes_the_sectioned_wrapper() {
        // Past TRY_BOTH_MAX, so the body statistics alone pick the form.
        let s = coded(&spread_symbols(80_000));
        let bytes = s.serialize(true);
        assert_eq!(bytes[0], WRAP_SECTIONED);
        assert_same(&SzStream::deserialize(&bytes).unwrap(), &s);
        // The body is stored verbatim right after the two lengths.
        let (_, body) = pwrel_lossless::huffman::split_payload(&s.codes_buf).unwrap();
        let mut pos = 1;
        varint::read_uvarint(&bytes, &mut pos).unwrap();
        assert_eq!(
            varint::read_uvarint(&bytes, &mut pos).unwrap(),
            body.len() as u64
        );
        assert_eq!(&bytes[pos..pos + body.len()], body);
        // With the pass off the same stream is written raw.
        let raw = s.serialize(false);
        assert_eq!(raw[0], WRAP_RAW);
        assert!(bytes.len() < raw.len());
        assert_same(&SzStream::deserialize(&raw).unwrap(), &s);
    }

    #[test]
    fn skewed_body_takes_the_whole_payload_pass() {
        // One bin takes almost every point: the body is long runs.
        let mut symbols = vec![512u32; 50_000];
        for i in (0..symbols.len()).step_by(97) {
            symbols[i] = 500 + (i % 5) as u32;
        }
        let s = coded(&symbols);
        let bytes = s.serialize(true);
        assert_eq!(bytes[0], WRAP_LZ);
        assert!(bytes.len() * 4 < s.codes_buf.len());
        assert_same(&SzStream::deserialize(&bytes).unwrap(), &s);
    }

    #[test]
    fn legacy_code_block_has_an_empty_body() {
        let symbols = spread_symbols(80_000);
        let mut s = coded(&symbols);
        s.codes_buf = pwrel_lossless::huffman::encode_symbols_single(&symbols, 1024);
        assert_eq!(pwrel_lossless::huffman::split_payload(&s.codes_buf), None);
        let body_len_at = |bytes: &[u8]| {
            let mut pos = 1;
            varint::read_uvarint(bytes, &mut pos).unwrap();
            varint::read_uvarint(bytes, &mut pos).unwrap()
        };
        let bytes = s.serialize(true);
        assert_eq!(bytes[0], WRAP_SECTIONED);
        assert_eq!(body_len_at(&bytes), 0);
        assert_same(&SzStream::deserialize(&bytes).unwrap(), &s);
    }

    #[test]
    fn whole_payload_wrapper_still_decodes() {
        let s = coded(&spread_symbols(3_000));
        let raw = s.serialize(false);
        let mut legacy = vec![WRAP_LZ];
        legacy.extend_from_slice(&LzStage.compress(&raw[1..]));
        assert_same(&SzStream::deserialize(&legacy).unwrap(), &s);
    }

    #[test]
    fn hostile_section_lengths_are_corrupt() {
        let s = coded(&spread_symbols(80_000));
        let bytes = s.serialize(true);
        assert_eq!(bytes[0], WRAP_SECTIONED);
        let mut pos = 1;
        let head_len = varint::read_uvarint(&bytes, &mut pos).unwrap();
        let body_len = varint::read_uvarint(&bytes, &mut pos).unwrap();
        let rest = &bytes[pos..];
        let forge = |h: u64, b: u64, tail: &[u8]| {
            let mut out = vec![WRAP_SECTIONED];
            varint::write_uvarint(&mut out, h);
            varint::write_uvarint(&mut out, b);
            out.extend_from_slice(tail);
            out
        };
        for (what, bad) in [
            ("head past LZ output", forge(1 << 40, body_len, rest)),
            ("head one past", forge(u64::MAX, body_len, rest)),
            (
                "body past input",
                forge(head_len, rest.len() as u64 + 1, rest),
            ),
            ("body u64::MAX", forge(head_len, u64::MAX, rest)),
            ("body too short", forge(head_len, body_len - 1, rest)),
            (
                "truncated LZ",
                forge(head_len, body_len, &rest[..rest.len() - 3]),
            ),
            ("lengths only", forge(head_len, body_len, &[])),
        ] {
            assert!(
                matches!(SzStream::deserialize(&bad), Err(CodecError::Corrupt(_))),
                "{what}"
            );
        }
        let mut unknown = bytes.clone();
        unknown[0] = 3;
        assert!(matches!(
            SzStream::deserialize(&unknown),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn block_count_must_match_dims() {
        let s = SzStream {
            float_bits: 32,
            dims: Dims::d1(100),
            capacity: 64,
            mode: SzMode::Pwr {
                rel_bound: 0.1,
                block_len: 50,
                block_exps: vec![0, 0, 0], // should be 2 blocks
            },
            codes_buf: vec![],
            n_unpred: 0,
            unpred_bytes: vec![],
        };
        let bytes = s.serialize(false);
        assert!(SzStream::deserialize(&bytes).is_err());
    }
}
