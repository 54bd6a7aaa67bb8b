//! Frozen copy of the seed byte-at-a-time bitstream engine.
//!
//! `pwrel-bitstream` was rewritten around a 64-bit accumulator with
//! unaligned word refills; this module preserves the engine it replaced —
//! byte-at-a-time `read_bits`/`write_bits`, bit-by-bit LSB paths, the
//! multi-byte `peek_bits` loop — together with the seed Huffman decoder and
//! ZFP plane coder built on it. `bench_entropy` measures the production
//! engine *against* this one, so the recorded speedups keep meaning "over
//! the seed engine" no matter how the live crate evolves. The seed LZ77
//! tokenizer is kept the same way, as the reference the live one must
//! match byte for byte. Do not optimise anything here.

use pwrel_bitstream::{varint, Error, Result};

/// Seed MSB-first writer: one accumulator byte, flushed every 8 bits.
#[derive(Debug, Default, Clone)]
pub struct SeedBitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl SeedBitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with a byte-capacity hint.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.nbits as u64
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | bit as u64;
        self.nbits += 1;
        if self.nbits == 8 {
            self.bytes.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends the low `n` bits of `value`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let mut remaining = n;
        while remaining > 0 {
            let take = (8 - self.nbits).min(remaining);
            let shift = remaining - take;
            let chunk = (value >> shift) & ((1u64 << take) - 1);
            self.acc = (self.acc << take) | chunk;
            self.nbits += take;
            remaining -= take;
            if self.nbits == 8 {
                self.bytes.push(self.acc as u8);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    /// Appends `n` bits LSB-first — the seed engine's bit-by-bit loop.
    #[inline]
    pub fn write_bits_lsb(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        for i in 0..n {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.bytes.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Finishes the stream (zero-padding the final byte) and returns it.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        self.bytes
    }
}

/// Seed MSB-first reader: per-byte indexing with a (pos, bit_pos) cursor.
#[derive(Debug, Clone)]
pub struct SeedBitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit_pos: u32,
}

impl<'a> SeedBitReader<'a> {
    /// Wraps a byte slice for bit-level reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            bit_pos: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> u64 {
        self.pos as u64 * 8 + self.bit_pos as u64
    }

    /// Number of bits still available.
    pub fn bits_remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.bits_read()
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = *self.bytes.get(self.pos).ok_or(Error::UnexpectedEof)?;
        let bit = (byte >> (7 - self.bit_pos)) & 1 == 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.pos += 1;
        }
        Ok(bit)
    }

    /// Reads `n` bits (≤ 64) into the low bits of the result, MSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        if self.bits_remaining() < n as u64 {
            return Err(Error::UnexpectedEof);
        }
        let mut out: u64 = 0;
        let mut remaining = n;
        while remaining > 0 {
            let avail = 8 - self.bit_pos;
            let take = avail.min(remaining);
            let byte = self.bytes[self.pos];
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.bit_pos += take;
            remaining -= take;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.pos += 1;
            }
        }
        Ok(out)
    }

    /// Reads `n` bits LSB-first — the seed engine's bit-by-bit loop.
    #[inline]
    pub fn read_bits_lsb(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        let mut out = 0u64;
        for i in 0..n {
            if self.read_bit()? {
                out |= 1u64 << i;
            }
        }
        Ok(out)
    }

    /// Returns the next `n` bits (≤ 32) without consuming them.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> Result<u64> {
        debug_assert!(n <= 32);
        if self.bits_remaining() < n as u64 {
            return Err(Error::UnexpectedEof);
        }
        let mut acc: u64 = 0;
        let first = self.pos;
        let nbytes = (self.bit_pos + n).div_ceil(8) as usize;
        for k in 0..nbytes {
            acc = (acc << 8) | self.bytes[first + k] as u64;
        }
        let total_bits = nbytes as u32 * 8;
        Ok((acc >> (total_bits - self.bit_pos - n)) & ((1u64 << n) - 1))
    }

    /// Consumes `n` bits previously inspected with `peek_bits`.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<()> {
        if self.bits_remaining() < n as u64 {
            return Err(Error::UnexpectedEof);
        }
        let total = self.bit_pos + n;
        self.pos += (total / 8) as usize;
        self.bit_pos = total % 8;
        Ok(())
    }
}

/// Seed decode LUT width (identical to the live coder's).
const LUT_BITS: u32 = 11;
/// Seed maximum admissible code length.
const MAX_CODE_LEN: u32 = 48;

/// The seed canonical Huffman decoder: same tables as the live
/// `CanonicalCode`, but decoding through [`SeedBitReader`]'s per-symbol
/// `bits_remaining`/`peek_bits`/`skip_bits` sequence.
pub struct SeedCanonicalCode {
    sorted_symbols: Vec<u32>,
    counts: Vec<u32>,
    first_code: Vec<u64>,
    offsets: Vec<u32>,
    lut: Vec<(u32, u8)>,
}

impl SeedCanonicalCode {
    /// Builds decode tables from per-symbol code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u32; max_len + 1];
        for &l in lens {
            if l > 0 {
                counts[l as usize] += 1;
            }
        }
        let mut sorted: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens[s as usize] > 0)
            .collect();
        sorted.sort_by_key(|&s| (lens[s as usize], s));

        let mut first_code = vec![0u64; max_len + 1];
        let mut offsets = vec![0u32; max_len + 1];
        let mut code: u64 = 0;
        let mut offset: u32 = 0;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l] = code;
            offsets[l] = offset;
            code += counts[l] as u64;
            offset += counts[l];
        }

        let mut next = first_code.clone();
        let mut lut = vec![(0u32, 0u8); 1usize << LUT_BITS];
        for &s in &sorted {
            let l = lens[s as usize] as usize;
            let c = next[l];
            next[l] += 1;
            if l as u32 <= LUT_BITS {
                let lo = (c << (LUT_BITS - l as u32)) as usize;
                let hi = ((c + 1) << (LUT_BITS - l as u32)) as usize;
                for entry in lut.iter_mut().take(hi).skip(lo) {
                    *entry = (s, l as u8);
                }
            }
        }

        Self {
            sorted_symbols: sorted,
            counts,
            first_code,
            offsets,
            lut,
        }
    }

    /// Reads one symbol — the seed per-symbol fast/slow split.
    #[inline]
    pub fn decode(&self, r: &mut SeedBitReader) -> Result<u32> {
        if r.bits_remaining() >= LUT_BITS as u64 {
            let prefix = r.peek_bits(LUT_BITS)?;
            let (sym, len) = self.lut[prefix as usize];
            if len > 0 {
                r.skip_bits(len as u32)?;
                return Ok(sym);
            }
        }
        self.decode_slow(r)
    }

    fn decode_slow(&self, r: &mut SeedBitReader) -> Result<u32> {
        let mut code: u64 = 0;
        for len in 1..self.counts.len() {
            code = (code << 1) | r.read_bit()? as u64;
            let n = self.counts[len] as u64;
            if n > 0 {
                let first = self.first_code[len];
                if code < first + n {
                    let idx = self.offsets[len] as u64 + (code - first);
                    return Ok(self.sorted_symbols[idx as usize]);
                }
            }
        }
        Err(Error::InvalidValue("huffman code not in table"))
    }
}

/// Seed `decode_symbols`: parses the live serialized table format (which
/// has not changed), then decodes the payload symbol-by-symbol through
/// the byte-at-a-time reader.
pub fn seed_decode_symbols(data: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let alphabet = varint::read_uvarint(data, pos)? as usize;
    if alphabet > (1 << 28) {
        return Err(Error::InvalidValue("huffman alphabet too large"));
    }
    let n_used = varint::read_uvarint(data, pos)? as usize;
    if n_used > alphabet {
        return Err(Error::InvalidValue("more used symbols than alphabet"));
    }
    let mut lens = vec![0u32; alphabet];
    let mut sym = 0u64;
    for i in 0..n_used {
        let delta = varint::read_uvarint(data, pos)?;
        sym = if i == 0 { delta } else { sym + delta };
        let len = varint::read_uvarint(data, pos)? as u32;
        if sym as usize >= alphabet || len == 0 || len > MAX_CODE_LEN {
            return Err(Error::InvalidValue("bad huffman table entry"));
        }
        lens[sym as usize] = len;
    }
    let code = SeedCanonicalCode::from_lengths(&lens);
    let n = varint::read_uvarint(data, pos)? as usize;
    let payload_len = varint::read_uvarint(data, pos)? as usize;
    let end = pos.checked_add(payload_len).ok_or(Error::UnexpectedEof)?;
    if end > data.len() {
        return Err(Error::UnexpectedEof);
    }
    if (n as u64) > payload_len as u64 * 8 {
        return Err(Error::InvalidValue("symbol count exceeds payload bits"));
    }
    let mut r = SeedBitReader::new(&data[*pos..end]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(code.decode(&mut r)?);
    }
    *pos = end;
    Ok(out)
}

/// Seed ZFP group-testing plane encoder (unbudgeted), verbatim from the
/// seed `nb.rs` but writing through [`SeedBitWriter`].
pub fn seed_encode_planes(w: &mut SeedBitWriter, coeffs: &[u64], intprec: u32, kmin: u32) {
    let size = coeffs.len();
    debug_assert!(size <= 64);
    let mut n: usize = 0;
    for k in (kmin..intprec).rev() {
        let mut x: u64 = 0;
        for (i, &c) in coeffs.iter().enumerate() {
            x |= ((c >> k) & 1) << i;
        }
        let m = n as u32;
        w.write_bits_lsb(x, m);
        x = if m >= 64 { 0 } else { x >> m };
        let mut n_cur = n;
        while n_cur < size {
            let more = x != 0;
            w.write_bit(more);
            if !more {
                break;
            }
            while n_cur < size - 1 {
                let bit = x & 1 == 1;
                w.write_bit(bit);
                if bit {
                    break;
                }
                x >>= 1;
                n_cur += 1;
            }
            x >>= 1;
            n_cur += 1;
        }
        n = n_cur;
    }
}

/// Seed ZFP group-testing plane decoder (unbudgeted), verbatim from the
/// seed `nb.rs` but reading through [`SeedBitReader`].
pub fn seed_decode_planes(
    r: &mut SeedBitReader,
    coeffs: &mut [u64],
    intprec: u32,
    kmin: u32,
) -> Result<()> {
    let size = coeffs.len();
    debug_assert!(size <= 64);
    let mut n: usize = 0;
    for k in (kmin..intprec).rev() {
        let m = n as u32;
        let mut x: u64 = r.read_bits_lsb(m)?;
        let mut n_cur = n;
        while n_cur < size {
            if !r.read_bit()? {
                break;
            }
            while n_cur < size - 1 {
                if r.read_bit()? {
                    break;
                }
                n_cur += 1;
            }
            x += 1u64 << n_cur;
            n_cur += 1;
        }
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c |= ((x >> i) & 1) << k;
        }
        n = n_cur;
    }
    Ok(())
}

/// Seed LZ parameters (identical to the live `lz` module's).
const LZ_WINDOW: usize = 32 * 1024;
const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 1 << 16;
const LZ_MAX_CHAIN: usize = 64;
const LZ_HASH_BITS: u32 = 15;

#[inline]
fn seed_hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
}

/// Seed `lz::tokenize`, verbatim: greedy hash-chain LZ77 with `usize`
/// links in an `n`-slot table and a byte-at-a-time match loop. The live
/// tokenizer must emit exactly these bytes for every input.
pub fn seed_lz_tokenize(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < LZ_MIN_MATCH {
        varint::write_uvarint(&mut out, n as u64);
        out.extend_from_slice(input);
        return out;
    }

    let mut head = vec![usize::MAX; 1 << LZ_HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + LZ_MIN_MATCH <= n {
        let h = seed_hash4(input, i);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while candidate != usize::MAX && i - candidate <= LZ_WINDOW && chain < LZ_MAX_CHAIN {
            let max_len = (n - i).min(LZ_MAX_MATCH);
            let mut l = 0usize;
            while l < max_len && input[candidate + l] == input[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - candidate;
                if l >= max_len {
                    break;
                }
            }
            candidate = prev[candidate];
            chain += 1;
        }

        if best_len >= LZ_MIN_MATCH {
            // Flush pending literals, then the match.
            varint::write_uvarint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            varint::write_uvarint(&mut out, (best_len - LZ_MIN_MATCH) as u64);
            varint::write_uvarint(&mut out, (best_dist - 1) as u64);
            // Insert the covered positions into the chains, stopping where a
            // 4-byte hash no longer fits, then jump past the whole match.
            let match_end = i + best_len;
            let insert_end = match_end.min(n.saturating_sub(LZ_MIN_MATCH - 1));
            while i < insert_end {
                let h = seed_hash4(input, i);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = match_end;
            lit_start = i;
            continue;
        }

        prev[i] = head[h];
        head[h] = i;
        i += 1;
    }

    // Trailing literals.
    varint::write_uvarint(&mut out, (n - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    out
}
