//! Property tests: the live LZ77 tokenizer (`u32` ring links, word-wise
//! match extension) emits exactly the token bytes of the frozen seed
//! tokenizer (`pwrel_bench::baseline::seed_lz_tokenize`), and the
//! container round-trips through the chunked match copy.

use proptest::prelude::*;
use pwrel_bench::baseline::seed_lz_tokenize;
use pwrel_data::Scale;
use pwrel_lossless::lz;
use pwrel_pipeline::{global, CompressOpts};

fn assert_same_tokens(input: &[u8]) {
    let live = lz::tokenize(input);
    let seed = seed_lz_tokenize(input);
    assert!(
        live == seed,
        "token streams differ on {} bytes",
        input.len()
    );
    assert_eq!(lz::decompress(&lz::compress(input)).unwrap(), input);
}

/// Deterministic xorshift bytes over a `1 << bits` alphabet.
fn noise(n: usize, bits: u32, seed: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 7) as u8 & ((1u16 << bits) - 1) as u8
        })
        .collect()
}

/// A short motif repeated with sparse mutations: long, overlapping and
/// nearly-equal matches of every length.
fn motif_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), 1..40),
        1usize..400,
        prop::collection::vec((any::<usize>(), any::<u8>()), 0..20),
    )
        .prop_map(|(motif, reps, edits)| {
            let mut v: Vec<u8> = motif
                .iter()
                .cycle()
                .take(motif.len() * reps)
                .copied()
                .collect();
            for (at, b) in edits {
                if !v.is_empty() {
                    let i = at % v.len();
                    v[i] = b;
                }
            }
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_alphabet_inputs_tokenize_identically(
        input in prop::collection::vec(0u8..4, 0..6000)
    ) {
        assert_same_tokens(&input);
    }

    #[test]
    fn arbitrary_bytes_tokenize_identically(
        input in prop::collection::vec(any::<u8>(), 0..3000)
    ) {
        assert_same_tokens(&input);
    }

    #[test]
    fn repeated_motifs_tokenize_identically(input in motif_strategy()) {
        assert_same_tokens(&input);
    }
}

/// Inputs far past the window and the link ring: stale hash heads, chains
/// cut by the window, the 64 KiB match cap and ring reuse.
#[test]
fn long_inputs_tokenize_identically() {
    let mut mixed = noise(90_000, 3, 7);
    mixed.extend(std::iter::repeat_n(0u8, 150_000));
    mixed.extend(noise(40_000, 8, 11));
    mixed.extend_from_within(1000..60_000);
    mixed.extend(noise(70_000, 2, 13));
    assert_same_tokens(&mixed);
    assert_same_tokens(&noise(200_000, 8, 17));
    assert_same_tokens(&noise(200_000, 1, 19));
}

/// Real SZ-family streams and raw field bytes from the dataset generators.
#[test]
fn codec_streams_tokenize_identically() {
    let fields = [
        pwrel_data::nyx::velocity_x(Scale::Small),
        pwrel_data::nyx::dark_matter_density(Scale::Small),
        pwrel_data::hacc::velocity(Scale::Small, 'x'),
        pwrel_data::cesm::cloud_fraction(Scale::Small, "CLDLOW", 0xCE51_0002),
    ];
    for f in &fields {
        let raw: Vec<u8> = f.data.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_same_tokens(&raw);
        for codec in ["sz_t", "sz_abs", "sz_pwr", "sz_hybrid_t"] {
            for bound in [1e-1, 1e-3] {
                let stream = global()
                    .compress(codec, &f.data, f.dims, &CompressOpts::rel(bound))
                    .unwrap();
                assert_same_tokens(&stream);
            }
        }
    }
}
