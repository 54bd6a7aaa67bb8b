#![forbid(unsafe_code)]

//! Hermetic fuzz smoke runner: mutation fuzzing over the golden-stream
//! corpus with a wall-clock budget, no external fuzzer required.
//!
//! ```text
//! cargo run --release -p pwrel-fuzz --bin fuzz_smoke -- --seconds 60
//! ```
//!
//! Seeds every golden fixture under `tests/fixtures/` plus raw SZ streams
//! in each wrapper form (raw, whole-payload LZ, sectioned), then loops:
//! pick a seed, apply a random batch of byte flips / truncations /
//! splices, and feed the result to every fuzz target. Any panic aborts
//! the process with a non-zero status, which is the CI failure signal.
//! This is the registry-less stand-in for the coverage-guided `fuzz/`
//! scaffold; it trades feedback for determinism and zero dependencies.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

fn corpus() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let mut seeds = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if path.extension().is_some_and(|e| e == "bin") {
                if let Ok(bytes) = std::fs::read(&path) {
                    seeds.push(bytes);
                }
            }
        }
    }
    if seeds.is_empty() {
        // Degenerate fallback so the smoke still runs from odd CWDs.
        seeds.push(b"PWU1\x01\x00\x20\x01".to_vec());
    }
    seeds.extend(sz_seeds());
    seeds
}

/// Raw SZ streams for the `fuzz_sz_stream` target: a noisy field (dense
/// Huffman body, sectioned wrapper), a smooth one at a loose bound
/// (whole-payload LZ wrapper) and the lossless pass off (raw wrapper).
fn sz_seeds() -> Vec<Vec<u8>> {
    use pwrel_data::Dims;
    use pwrel_sz::SzCompressor;
    let dims = Dims::d2(32, 64);
    let mut x = 0x2545_F491u32;
    let noisy: Vec<f32> = (0..dims.len())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x % 1000) as f32 * 0.1
        })
        .collect();
    let smooth: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.01).sin()).collect();
    let sz = SzCompressor::default();
    let raw = SzCompressor {
        lossless_pass: false,
        ..SzCompressor::default()
    };
    [
        sz.compress_abs(&noisy, dims, 1e-3),
        sz.compress_pwr(&noisy, dims, 1e-3),
        sz.compress_abs(&smooth, dims, 1e-1),
        raw.compress_abs(&noisy, dims, 1e-2),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn mutate(rng: &mut SmallRng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    match rng.gen_range(0..4u32) {
        // Byte flips.
        0 => {
            for _ in 0..=rng.gen_range(0..8u32) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= (rng.next_u64() & 0xFF) as u8;
            }
        }
        // Truncation.
        1 => bytes.truncate(rng.gen_range(0..bytes.len().max(1))),
        // Splice a window from another offset over this one.
        2 => {
            if bytes.len() >= 8 {
                let len = rng.gen_range(1..bytes.len() / 2);
                let src = rng.gen_range(0..bytes.len() - len);
                let dst = rng.gen_range(0..bytes.len() - len);
                let window: Vec<u8> = bytes[src..src + len].to_vec();
                bytes[dst..dst + len].copy_from_slice(&window);
            }
        }
        // Random garbage of seed-like length.
        _ => {
            let len = rng.gen_range(0..bytes.len().max(2));
            bytes.clear();
            bytes.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
        }
    }
    bytes
}

fn main() {
    let mut seconds = 30u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => {
                seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds takes an integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let seeds = corpus();
    let mut rng = SmallRng::seed_from_u64(0x70775f72656c);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut execs = 0u64;

    // The seeds themselves must decode cleanly first.
    for seed in &seeds {
        pwrel_fuzz::fuzz_all(seed);
        execs += 1;
    }
    while Instant::now() < deadline {
        for seed in &seeds {
            let input = mutate(&mut rng, seed);
            pwrel_fuzz::fuzz_all(&input);
            execs += 1;
        }
    }
    println!(
        "fuzz_smoke: {execs} execs over {} seeds in {seconds}s budget, no panics",
        seeds.len()
    );
}
