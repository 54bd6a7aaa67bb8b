//! Golden-stream compatibility across three stream generations.
//!
//! * **Legacy fixtures** (`<codec>_<elem>_<rank>d.bin`) were produced by
//!   the v1 container with single-stream Huffman payloads. They are
//!   decode-only: the current decoder must keep reading them byte-exactly
//!   (and the point-wise bound must hold), but the encoder no longer
//!   produces that format.
//! * **v2 fixtures** (`<codec>_<elem>_<rank>d_v2.bin`) carry the v2
//!   container header (entropy-mode byte) and, for the SZ family, 4-way
//!   interleaved Huffman payloads. For the SZ family (`sz_t`, `sz_abs`,
//!   `sz_pwr`, `sz_hybrid_t`) they are decode-only, pinned from before
//!   the sectioned SZ wrapper; every other codec's encoder must still
//!   reproduce its v2 fixture byte-identically.
//! * **v3 fixtures** (`<sz codec>_<elem>_<rank>d_v3.bin`) carry the SZ
//!   family's current format, the sectioned LZ wrapper (byte `2`), over a
//!   larger field whose Huffman body is dense enough to take it. Today's
//!   encoder must reproduce them byte-identically.
//!
//! Every registered codec is covered for f32/f64 × 1D/2D/3D. The input
//! field is derived from a closed-form expression (no RNG, no dataset
//! files), so a fixture mismatch always means the *stream format* moved,
//! never the test harness.
//!
//! Regenerate the re-encoded fixtures (non-SZ v2 and SZ v3) after an
//! intentional format change with:
//!
//! ```text
//! PWREL_REGEN_FIXTURES=1 cargo test --test golden_streams
//! ```
//!
//! Decode-only fixtures are never regenerated — the encoder that produced
//! them is gone by design, which is exactly why they are pinned.

use pwrel::data::Dims;
use pwrel::pipeline::{global, CompressOpts};
use std::path::PathBuf;

/// Strictly positive, smoothly varying field all roster codecs accept
/// (zfp_p included), with enough structure to exercise Huffman tables,
/// RLE runs, LZ matches and multi-plane ZFP blocks.
fn fixture_data(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            60.0 + 45.0 * (t * 0.37).sin() * (t * 0.011).cos() + 4.0 * (t * 3.1).sin()
        })
        .collect()
}

/// The fixture shapes: one per rank, equal element count.
fn shapes() -> [Dims; 3] {
    [Dims::d1(240), Dims::d2(16, 15), Dims::d3(6, 8, 5)]
}

/// The v3 shapes: large enough that the SZ Huffman body is dense and
/// the stream takes the sectioned wrapper.
fn shapes_v3() -> [Dims; 3] {
    [Dims::d1(2048), Dims::d2(32, 64), Dims::d3(8, 16, 16)]
}

/// The codecs whose streams end in the SZ container.
const SZ_FAMILY: [&str; 4] = ["sz_t", "sz_abs", "sz_pwr", "sz_hybrid_t"];

fn fixture_path(codec: &str, elem: &str, rank: u8, suffix: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{codec}_{elem}_{rank}d{suffix}.bin"))
}

const REL_BOUND: f64 = 1e-3;

/// Compresses the fixture field for one (codec, elem, shape) cell.
fn encode_cell(codec: &str, elem: &str, dims: Dims) -> Vec<u8> {
    let data = fixture_data(dims.len());
    let opts = CompressOpts::rel(REL_BOUND);
    match elem {
        "f32" => {
            let d: Vec<f32> = data.iter().map(|&x| x as f32).collect();
            global().compress(codec, &d, dims, &opts)
        }
        "f64" => global().compress(codec, &data, dims, &opts),
        _ => unreachable!(),
    }
    .unwrap_or_else(|e| panic!("{codec}/{elem}/{dims:?} compress: {e:?}"))
}

/// Decodes a fixture and checks the point-wise relative bound (skipped
/// for zfp_p, whose fixed-precision mode has no per-point guarantee).
fn check_decode(codec: &str, elem: &str, dims: Dims, stream: &[u8]) {
    let reference = fixture_data(dims.len());
    let decoded: Vec<f64> = match elem {
        "f32" => {
            let (d, got) = global()
                .decompress::<f32>(stream)
                .unwrap_or_else(|e| panic!("{codec}/{elem} decode: {e:?}"));
            assert_eq!(got, dims, "{codec}/{elem}");
            d.into_iter().map(|x| x as f64).collect()
        }
        "f64" => {
            let (d, got) = global()
                .decompress::<f64>(stream)
                .unwrap_or_else(|e| panic!("{codec}/{elem} decode: {e:?}"));
            assert_eq!(got, dims, "{codec}/{elem}");
            d
        }
        _ => unreachable!(),
    };
    assert_eq!(decoded.len(), dims.len(), "{codec}/{elem}");
    if codec != "zfp_p" {
        // f32 cells check against the f32-rounded reference; the codecs
        // guarantee the bound on the values they were handed.
        for (i, (&a, &b)) in reference.iter().zip(&decoded).enumerate() {
            let a = if elem == "f32" { a as f32 as f64 } else { a };
            let rel = ((a - b) / a).abs();
            assert!(
                rel <= REL_BOUND * 1.0000001,
                "{codec}/{elem} idx {i}: rel err {rel:e}"
            );
        }
    }
}

/// Legacy v1 fixtures keep decoding byte-exactly — the old single-stream
/// mode stays a first-class fallback decoder forever.
#[test]
fn legacy_golden_streams_still_decode() {
    let codecs: Vec<&str> = global().iter().map(|c| c.name()).collect();
    for codec in codecs {
        for elem in ["f32", "f64"] {
            for dims in shapes() {
                let path = fixture_path(codec, elem, dims.rank(), "");
                let golden = std::fs::read(&path)
                    .unwrap_or_else(|e| panic!("missing legacy fixture {path:?} ({e})"));
                check_decode(codec, elem, dims, &golden);
            }
        }
    }
}

/// Compares a fresh encode against a committed fixture (or rewrites it
/// under `PWREL_REGEN_FIXTURES`), then decodes the fixture.
fn check_reencode(codec: &str, elem: &str, dims: Dims, suffix: &str) -> Vec<u8> {
    let path = fixture_path(codec, elem, dims.rank(), suffix);
    let stream = encode_cell(codec, elem, dims);
    if std::env::var("PWREL_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &stream).unwrap();
        return stream;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {path:?} ({e}); run with \
             PWREL_REGEN_FIXTURES=1 to create it"
        )
    });
    assert_eq!(
        stream,
        golden,
        "{codec}/{elem}/{}d re-encode differs from the committed \
         golden stream {suffix}",
        dims.rank()
    );
    check_decode(codec, elem, dims, &golden);
    golden
}

/// The current encoder reproduces the committed v2 fixtures of every
/// non-SZ codec byte-identically; the SZ family's v2 fixtures still
/// decode byte-exactly within the bound.
#[test]
fn golden_streams_decode_and_reencode_byte_identically() {
    let codecs: Vec<&str> = global().iter().map(|c| c.name()).collect();
    for codec in codecs {
        for elem in ["f32", "f64"] {
            for dims in shapes() {
                if SZ_FAMILY.contains(&codec) {
                    let path = fixture_path(codec, elem, dims.rank(), "_v2");
                    let golden = std::fs::read(&path)
                        .unwrap_or_else(|e| panic!("missing v2 fixture {path:?} ({e})"));
                    check_decode(codec, elem, dims, &golden);
                } else {
                    check_reencode(codec, elem, dims, "_v2");
                }
            }
        }
    }
}

/// The SZ stream inside a one-shot container: the `PWU1` payload itself,
/// or the inner stream of a `PWT1` transform container.
fn inner_sz(stream: &[u8]) -> &[u8] {
    fn uvarint(b: &[u8], pos: &mut usize) -> u64 {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = b[*pos];
            *pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        v
    }
    let (_, payload) = pwrel::pipeline::container::unwrap(stream).unwrap();
    if !payload.starts_with(b"PWT1") {
        return payload;
    }
    let mut pos = 4 + 1 + 1 + 1 + 8 + 8; // magic, width, base, sign flag, bounds
    if payload[6] == 1 {
        pos += uvarint(payload, &mut pos) as usize;
    }
    let len = uvarint(payload, &mut pos) as usize;
    &payload[pos..pos + len]
}

/// The SZ family's v3 fixtures pin the sectioned wrapper: today's encoder
/// reproduces them byte-identically, and every one of them takes it.
#[test]
fn sz_family_v3_streams_reencode_byte_identically() {
    for codec in SZ_FAMILY {
        for elem in ["f32", "f64"] {
            for dims in shapes_v3() {
                let golden = check_reencode(codec, elem, dims, "_v3");
                assert_eq!(
                    inner_sz(&golden)[0],
                    2,
                    "{codec}/{elem}/{}d v3 fixture must use the sectioned wrapper",
                    dims.rank()
                );
            }
        }
    }
}

/// On the dataset generators, the SZ wrapper the encoder picks is never
/// larger than the whole-payload LZ wrapper `[1u8] ++ lz(payload)`.
#[test]
fn sz_wrapper_never_loses_to_whole_payload_lz() {
    use pwrel::data::Scale;
    use pwrel::lossless::lz;
    use pwrel::sz::SzStream;
    let fields = [
        pwrel::data::nyx::velocity_x(Scale::Small),
        pwrel::data::hacc::velocity(Scale::Small, 'x'),
        pwrel::data::cesm::cloud_fraction(Scale::Small, "CLDLOW", 0xCE51_0002),
        pwrel::data::cesm::dataset(Scale::Small)
            .fields
            .pop()
            .unwrap(),
    ];
    for f in &fields {
        for codec in SZ_FAMILY {
            for bound in [1e-1, 1e-3, 1e-5] {
                let stream = global()
                    .compress(codec, &f.data, f.dims, &CompressOpts::rel(bound))
                    .unwrap_or_else(|e| panic!("{codec}/{}: {e:?}", f.name));
                let sz = inner_sz(&stream);
                let flat = SzStream::deserialize(sz).unwrap().serialize(false);
                assert_eq!(flat[0], 0);
                let whole = 1 + lz::compress(&flat[1..]).len();
                assert!(
                    sz.len() <= whole,
                    "{codec}/{}/{bound:e}: wrapper {} gives {} bytes, whole-payload LZ {whole}",
                    f.name,
                    sz[0],
                    sz.len()
                );
            }
        }
    }
}
