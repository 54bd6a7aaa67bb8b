//! LZ77 hash-chain compressor — the workspace's gzip/DEFLATE stand-in.
//!
//! SZ's optional stage III pipes its entropy-coded stream through gzip. This
//! module provides the equivalent: greedy LZ77 with a 32 KiB window and
//! hash-chain match finding, followed by a canonical-Huffman pass over the
//! token bytes. A stored-mode fallback guarantees incompressible input
//! expands by only a few bytes.
//!
//! Token format (before the Huffman pass), repeated until the input ends:
//! `uvarint literal_run_len`, that many literal bytes, then — unless the
//! input is exhausted — `uvarint (match_len - MIN_MATCH)` and
//! `uvarint (distance - 1)`.

use crate::huffman;
use pwrel_bitstream::{varint, Error, Result};

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
/// Upper bound on hash-chain probes per position (gzip's "good" level).
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

/// Container modes.
const MODE_STORED: u8 = 0;
const MODE_TOKENS: u8 = 1;
const MODE_TOKENS_HUFF: u8 = 2;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Chain-link ring length: a power of two larger than [`WINDOW`], so the
/// slot of any position still inside the window holds that position's own
/// link (a slot is only reused `RING` positions later).
const RING: usize = 2 * WINDOW;
/// Ring value for "no earlier position in the window".
const NO_LINK: u32 = WINDOW as u32 + 1;

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `max_len` (`a < b` and `b + max_len <= input.len()`). Compares eight
/// bytes per step: the first differing byte is the lowest set byte of the
/// XOR of two little-endian loads.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&input[a..a + max_len], &input[b..b + max_len]);
    let mut l = 0usize;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        let diff = word(wx) ^ word(wy);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + x[l..]
        .iter()
        .zip(&y[l..])
        .take_while(|(p, q)| p == q)
        .count()
}

/// Produces the raw LZ77 token stream for `input`.
///
/// Greedy parse: at each position the longest match among the newest 64
/// same-hash positions within the 32 KiB window wins, the nearest on
/// ties. Chain links are distances to the previous same-hash position,
/// stored as `u32` in a 64 Ki-slot ring instead of an `n`-slot table.
pub fn tokenize(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        varint::write_uvarint(&mut out, n as u64);
        out.extend_from_slice(input);
        return out;
    }

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    // Inputs shorter than the ring never wrap, so a smaller one suffices.
    let ring_len = n.next_power_of_two().min(RING);
    let mask = ring_len - 1;
    let mut links = vec![NO_LINK; ring_len];
    // Records `pos` as the newest position with hash `h`.
    let insert = |head: &mut [usize], links: &mut [u32], h: usize, pos: usize| {
        let newest = head[h];
        links[pos & mask] = if newest == usize::MAX {
            NO_LINK
        } else {
            (pos - newest).min(NO_LINK as usize) as u32
        };
        head[h] = pos;
    };
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= n {
        let h = hash4(input, i);
        let max_len = (n - i).min(MAX_MATCH);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while candidate != usize::MAX && i - candidate <= WINDOW && chain < MAX_CHAIN {
            // Only a match longer than `best_len` can win, and any such
            // match agrees at offset `best_len` (< max_len here).
            if input[candidate + best_len] == input[i + best_len] {
                let l = match_len(input, candidate, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - candidate;
                    if l >= max_len {
                        break;
                    }
                }
            }
            let link = links[candidate & mask] as usize;
            candidate = candidate.checked_sub(link).unwrap_or(usize::MAX);
            chain += 1;
        }

        if best_len >= MIN_MATCH {
            // Flush pending literals, then the match.
            varint::write_uvarint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            varint::write_uvarint(&mut out, (best_len - MIN_MATCH) as u64);
            varint::write_uvarint(&mut out, (best_dist - 1) as u64);
            // Insert the covered positions into the chains, stopping where a
            // 4-byte hash no longer fits, then jump past the whole match.
            let match_end = i + best_len;
            let insert_end = match_end.min(n.saturating_sub(MIN_MATCH - 1));
            while i < insert_end {
                insert(&mut head, &mut links, hash4(input, i), i);
                i += 1;
            }
            i = match_end;
            lit_start = i;
            continue;
        }

        insert(&mut head, &mut links, h, i);
        i += 1;
    }

    // Trailing literals.
    varint::write_uvarint(&mut out, (n - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    out
}

/// Preallocation cap for [`detokenize`]: the claimed output length is
/// header data, so the upfront reservation is bounded and the vector
/// only grows past it as actual decoded bytes accumulate (an attacker
/// must pay stream bytes for every further doubling).
const MAX_PREALLOC: usize = 1 << 20;

/// Decodes the raw token stream into `expected_len` bytes.
fn detokenize(tokens: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    let mut pos = 0usize;
    while out.len() < expected_len {
        let lit_len = varint::read_uvarint(tokens, &mut pos)? as usize;
        let end = pos.checked_add(lit_len).ok_or(Error::UnexpectedEof)?;
        // `expected_len - out.len()` is the remaining budget; the loop
        // condition guarantees the subtraction (phrasing the checks this
        // way also keeps hostile lengths from overflowing the additions).
        if lit_len > expected_len - out.len() {
            return Err(Error::UnexpectedEof);
        }
        out.extend_from_slice(tokens.get(pos..end).ok_or(Error::UnexpectedEof)?);
        pos = end;
        if out.len() == expected_len {
            break;
        }
        let match_len =
            (varint::read_uvarint(tokens, &mut pos)? as usize).saturating_add(MIN_MATCH);
        let dist = (varint::read_uvarint(tokens, &mut pos)? as usize).saturating_add(1);
        if dist > out.len() || match_len > expected_len - out.len() {
            return Err(Error::InvalidValue("lz match out of range"));
        }
        // Copy in chunks no longer than the bytes already behind `start`:
        // one chunk when the match does not overlap its own output, else
        // doubling chunks that replay the `dist`-periodic pattern.
        let start = out.len() - dist;
        let mut remaining = match_len;
        while remaining > 0 {
            let take = (out.len() - start).min(remaining);
            out.extend_from_within(start..start + take);
            remaining -= take;
        }
    }
    Ok(out)
}

/// Compresses `input`; never fails, and the output is at most
/// `input.len() + O(varint)` bytes thanks to the stored-mode fallback.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = tokenize(input);
    let huffed =
        huffman::encode_symbols(&tokens.iter().map(|&b| b as u32).collect::<Vec<_>>(), 256);

    let (mode, payload) = if huffed.len() < tokens.len() && huffed.len() < input.len() {
        (MODE_TOKENS_HUFF, huffed)
    } else if tokens.len() < input.len() {
        (MODE_TOKENS, tokens)
    } else {
        (MODE_STORED, input.to_vec())
    };

    let mut out = Vec::with_capacity(payload.len() + 10);
    out.push(mode);
    varint::write_uvarint(&mut out, input.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mode = *data.first().ok_or(Error::UnexpectedEof)?;
    let mut pos = 1usize;
    let raw_len = varint::read_uvarint(data, &mut pos)? as usize;
    match mode {
        MODE_STORED => {
            let end = pos.checked_add(raw_len).ok_or(Error::UnexpectedEof)?;
            Ok(data.get(pos..end).ok_or(Error::UnexpectedEof)?.to_vec())
        }
        MODE_TOKENS => detokenize(data.get(pos..).ok_or(Error::UnexpectedEof)?, raw_len),
        MODE_TOKENS_HUFF => {
            let syms = huffman::decode_symbols(data, &mut pos)?;
            let tokens: Vec<u8> = syms.into_iter().map(|s| s as u8).collect();
            detokenize(&tokens, raw_len)
        }
        _ => Err(Error::InvalidValue("unknown lz container mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn highly_repetitive_input_compresses_hard() {
        let data = vec![42u8; 100_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < 1000, "c.len() = {}", c.len());
    }

    #[test]
    fn periodic_pattern_compresses() {
        let data: Vec<u8> = (0..50_000).map(|i| ((i % 173) * 7) as u8).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 4, "c.len() = {}", c.len());
    }

    #[test]
    fn incompressible_input_barely_expands() {
        // Simple xorshift noise; stored mode must cap the expansion.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() <= data.len() + 16);
    }

    #[test]
    fn overlapping_match_copies() {
        // "abcabcabc..." forces dist=3 matches longer than the distance.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        round_trip(&data);
    }

    #[test]
    fn text_like_input() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog again!"
            .repeat(50);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 5);
    }

    #[test]
    fn corrupt_mode_byte_is_error() {
        let c = compress(b"hello world hello world");
        let mut bad = c.clone();
        bad[0] = 99;
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn truncated_stream_is_error() {
        let data = vec![7u8; 5000];
        let c = compress(&data);
        assert!(decompress(&c[..c.len() / 2]).is_err());
    }
}
