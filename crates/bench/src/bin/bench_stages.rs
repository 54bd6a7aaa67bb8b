#![forbid(unsafe_code)]
//! Emits `BENCH_stages.json`: per-stage wall-clock breakdowns for the two
//! transform codecs (`sz_t`, `zfp_t`), recorded through the `pwrel-trace`
//! layer on a traced compress + decompress round trip, one row per NYX
//! field: `dark_matter_density` and `velocity_x`. Density alone hides the
//! LZ stage (its sz_t payload is dense Huffman output); on velocity_x the
//! stage carries the code table and a larger unpredictable store.
//!
//! Complements `BENCH_transform.json` / `BENCH_entropy.json`, which time
//! isolated kernels: this bench shows where a whole pipeline run spends
//! its time, stage by stage, as the registry reports it. Honours
//! `PWREL_SCALE` and writes the JSON next to the current directory so a
//! repo-root invocation lands it at `/BENCH_stages.json`.
//!
//! Each codec is measured `PWREL_STAGE_REPS` times (default 5) after a
//! warm-up pass and the rep with the smallest compress + decompress total
//! is reported — single-shot stage numbers on a shared machine are
//! dominated by scheduler and frequency noise.
//!
//! `--gate <committed BENCH_stages.json>` switches to regression-gate
//! mode: instead of writing the JSON, the hot-kernel stages
//! (`predict_quantize`, `huffman`, `lz`, `plane_code`) of every field row
//! are compared per element against the same row of the committed file
//! and the process exits non-zero if any regressed by more than 15%. Run it at the committed file's scale (`PWREL_SCALE=
//! medium` for the checked-in baseline — itself smoke-sized): per-element
//! cost is *not* scale-invariant for `plane_code`, whose edge-block
//! padding overhead grows as grids shrink.

use pwrel_bench::scale_from_env;
use pwrel_pipeline::{global, CompressOpts};
use pwrel_trace::{export, stage, TraceSink};

/// One traced round trip; returns the sink plus the container size.
fn traced_round_trip(codec: &str, data: &[f32], dims: pwrel_data::Dims) -> (TraceSink, usize) {
    let sink = TraceSink::new();
    let stream = global()
        .compress_traced(codec, data, dims, &CompressOpts::rel(1e-3), &sink)
        .unwrap_or_else(|e| panic!("{codec} compress: {e:?}"));
    let (back, _) = global()
        .decompress_traced::<f32>(&stream, &sink)
        .unwrap_or_else(|e| panic!("{codec} decompress: {e:?}"));
    assert_eq!(back.len(), data.len());
    (sink, stream.len())
}

/// Renders one codec's stage rows as a JSON object, root spans first.
fn stages_json(sink: &TraceSink) -> String {
    let rows = export::stage_rows(sink);
    let mut names: Vec<&str> = rows.keys().copied().collect();
    // Roots first, then the per-stage spans in alphabetical order.
    names.sort_by_key(|n| (*n != stage::COMPRESS, *n != stage::DECOMPRESS, *n));
    let body: Vec<String> = names
        .iter()
        .map(|name| {
            let row = &rows[name];
            format!(
                "            \"{}\": {{\"calls\": {}, \"total_ms\": {:.3}}}",
                name,
                row.calls,
                row.total_ns as f64 / 1e6
            )
        })
        .collect();
    format!("{{\n{}\n          }}", body.join(",\n"))
}

/// Total nanoseconds the sink attributes to the round-trip roots; the
/// rep-selection metric.
fn round_trip_ns(sink: &TraceSink) -> u64 {
    let rows = export::stage_rows(sink);
    [stage::COMPRESS, stage::DECOMPRESS]
        .iter()
        .map(|name| rows.get(name).map_or(0, |row| row.total_ns))
        .sum()
}

/// The fields measured, one JSON row each.
const FIELDS: [&str; 2] = ["dark_matter_density", "velocity_x"];

/// One field's row in a committed `BENCH_stages.json`: the text from its
/// key to the next field's key (or the end) — a positional scope over
/// this binary's own output format, so the gate needs no JSON parser.
fn committed_row<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{field}\": {{"))?;
    let rest = &text[at..];
    let end = FIELDS
        .iter()
        .filter(|f| **f != field)
        .filter_map(|f| rest.find(&format!("\"{f}\": {{")))
        .min()
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// One stage's `total_ms` within a committed row (each gated stage name
/// appears exactly once per row).
fn committed_total_ms(row: &str, stage_name: &str) -> Option<f64> {
    let at = row.find(&format!("\"{stage_name}\""))?;
    let rest = &row[at..];
    let val = &rest[rest.find("\"total_ms\": ")? + "\"total_ms\": ".len()..];
    let end = val.find('}')?;
    val[..end].trim().parse().ok()
}

/// A committed row's element count (for per-element normalization).
fn committed_elements(row: &str) -> Option<f64> {
    let val = &row[row.find("\"elements\": ")? + "\"elements\": ".len()..];
    let end = val.find(',')?;
    val[..end].trim().parse().ok()
}

/// Best-of-`reps` traced round trips of both codecs on one field: the
/// JSON row and the winning sinks.
fn measure(
    field: &pwrel_data::Field<f32>,
    reps: usize,
) -> (String, Vec<(&'static str, TraceSink)>) {
    let nbytes = field.data.len() * 4;
    let mut entries = Vec::new();
    let mut best_sinks = Vec::new();
    for codec in ["sz_t", "zfp_t"] {
        // Warm-up pass pages the dataset in; best-of-reps follows.
        traced_round_trip(codec, &field.data, field.dims);
        let (mut sink, mut compressed) = traced_round_trip(codec, &field.data, field.dims);
        for _ in 1..reps {
            let (s, c) = traced_round_trip(codec, &field.data, field.dims);
            if round_trip_ns(&s) < round_trip_ns(&sink) {
                (sink, compressed) = (s, c);
            }
        }
        let ratio = nbytes as f64 / compressed as f64;
        entries.push(format!(
            concat!(
                "        \"{}\": {{\n",
                "          \"compressed_bytes\": {},\n",
                "          \"ratio\": {:.3},\n",
                "          \"stages\": {}\n",
                "        }}",
            ),
            codec,
            compressed,
            ratio,
            stages_json(&sink),
        ));
        eprintln!("{}/{codec}: ratio {ratio:.2}", field.name);
        best_sinks.push((codec, sink));
    }
    let row = format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"elements\": {},\n",
            "      \"codecs\": {{\n",
            "{}\n",
            "      }}\n",
            "    }}",
        ),
        field.name,
        field.data.len(),
        entries.join(",\n"),
    );
    (row, best_sinks)
}

/// Compares one field's gated stages against its committed row; returns
/// whether any regressed by more than 15% per element.
fn gate_field(
    committed: &str,
    field: &pwrel_data::Field<f32>,
    sinks: &[(&'static str, TraceSink)],
) -> bool {
    let row = committed_row(committed, &field.name)
        .unwrap_or_else(|| panic!("baseline missing field {}", field.name));
    let base_elems = committed_elements(row).expect("baseline elements");
    let cur_elems = field.data.len() as f64;
    let mut failed = false;
    for (codec, stage_name) in [
        ("sz_t", stage::PREDICT_QUANTIZE),
        ("sz_t", stage::HUFFMAN),
        ("sz_t", stage::LZ),
        ("zfp_t", stage::PLANE_CODE),
    ] {
        let sink = &sinks.iter().find(|(c, _)| *c == codec).unwrap().1;
        let rows = export::stage_rows(sink);
        let cur_ms = rows[stage_name].total_ns as f64 / 1e6;
        let base_ms = committed_total_ms(row, stage_name)
            .unwrap_or_else(|| panic!("baseline missing stage {stage_name}"));
        let cur_per = cur_ms / cur_elems;
        let base_per = base_ms / base_elems;
        let delta = (cur_per / base_per - 1.0) * 100.0;
        eprintln!(
            "gate {}/{codec}/{stage_name}: {:.2} vs committed {:.2} ns/elem ({delta:+.1}%)",
            field.name,
            cur_per * 1e6,
            base_per * 1e6,
        );
        if cur_per > base_per * 1.15 {
            failed = true;
        }
    }
    failed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).expect("--gate requires a path").clone());

    let scale = scale_from_env();
    let reps: usize = std::env::var("PWREL_STAGE_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5);
    let fields = [
        pwrel_data::nyx::dark_matter_density(scale),
        pwrel_data::nyx::velocity_x(scale),
    ];
    debug_assert!(fields.iter().map(|f| f.name.as_str()).eq(FIELDS));

    let committed = gate_path.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("gate baseline {path}: {e}"))
    });
    let mut rows = Vec::new();
    let mut failed = false;
    for field in &fields {
        let (row, sinks) = measure(field, reps);
        rows.push(row);
        if let Some(committed) = &committed {
            failed |= gate_field(committed, field, &sinks);
        }
    }

    if committed.is_some() {
        if failed {
            eprintln!("stage gate FAILED: hot-kernel stage regressed > 15% per element");
            std::process::exit(1);
        }
        eprintln!("stage gate passed");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline_stages\",\n",
            "  \"dataset\": \"NYX\",\n",
            "  \"scale\": \"{:?}\",\n",
            "  \"dtype\": \"f32\",\n",
            "  \"rel_bound\": 1e-3,\n",
            "  \"fields\": {{\n",
            "{}\n",
            "  }}\n",
            "}}\n",
        ),
        scale,
        rows.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_stages.json", &json).expect("write BENCH_stages.json");
    eprintln!("wrote BENCH_stages.json");
}
