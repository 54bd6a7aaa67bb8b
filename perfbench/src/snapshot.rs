//! `snapshot`: one thread round-trips a multi-field HPC snapshot through
//! the registry's one-shot compress/decompress with sz_t and zfp_t at
//! b_r = 1e-3. No pool, no socket: the codec kernels do all the work,
//! and every field is larger than a core's L2.

use crate::adapter::{self, Dims, Elem, Tracer};
use crate::batch::{self, Op};
use crate::report::{Input, Outcome};
use crate::rss::PeakRss;
use crate::spans::{coverage_notes, layer_metrics, PassTrace};
use crate::stats::median;
use crate::{check, Config, SETUP_REPEATS};
use std::time::Instant;

const BOUND: f64 = 1e-3;
const CODECS: [&str; 2] = ["sz_t", "zfp_t"];

enum Data {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

struct Field {
    name: &'static str,
    dims: Dims,
    data: Data,
}

impl Field {
    fn bytes(&self) -> usize {
        match &self.data {
            Data::F32(v) => v.len() * 4,
            Data::F64(v) => v.len() * 8,
        }
    }
}

fn generate(cfg: &Config) -> Vec<Field> {
    let (n3, n1, (ny, nx)) = if cfg.tiny {
        (16, 4096, (32, 64))
    } else {
        (128, 1 << 21, (900, 1800))
    };
    let d3 = Dims::d3(n3, n3, n3);
    let d2 = Dims::d2(ny, nx);
    let density = adapter::nyx_density(d3, cfg.seed_for(0));
    let density64 = density.iter().map(|&v| v as f64).collect();
    vec![
        Field {
            name: "nyx.dark_matter_density",
            dims: d3,
            data: Data::F32(density),
        },
        Field {
            name: "nyx.velocity_x",
            dims: d3,
            data: Data::F32(adapter::nyx_velocity(d3, cfg.seed_for(1))),
        },
        Field {
            name: "hacc.velocity_x",
            dims: Dims::d1(n1),
            data: Data::F32(adapter::hacc_velocity(n1, cfg.seed_for(2))),
        },
        Field {
            name: "cesm.CLDLOW",
            dims: d2,
            data: Data::F32(adapter::cesm_cloud(d2, cfg.seed_for(3))),
        },
        Field {
            name: "cesm.U850",
            dims: d2,
            data: Data::F32(adapter::cesm_wind(d2, cfg.seed_for(4))),
        },
        Field {
            name: "nyx.dark_matter_density.f64",
            dims: d3,
            data: Data::F64(density64),
        },
    ]
}

/// One pass over every field with every codec.
#[derive(Default)]
struct Pass {
    /// Per (codec, field), in a fixed order.
    ops: Vec<Op>,
    /// Compressed stream per (codec, field), compared with the first
    /// pass's: every pass must emit the same bytes.
    streams: Vec<Vec<u8>>,
    trace: Option<PassTrace>,
}

fn round_trip<F: Elem>(
    codec: &str,
    name: &str,
    data: &[F],
    dims: Dims,
    traced: bool,
    pass: &mut Pass,
    out: &mut Outcome,
) {
    let failed = Op {
        compress_s: f64::NAN,
        decompress_s: f64::NAN,
    };
    let tc = traced.then(Tracer::new);
    out.attempted += 1;
    let t0 = Instant::now();
    let stream = adapter::compress(codec, data, dims, BOUND, tc.as_ref());
    let c_s = t0.elapsed().as_secs_f64();
    let stream = match stream {
        Ok(s) => s,
        Err(e) => {
            out.errors += 1;
            out.notes.push(e);
            pass.ops.push(failed);
            pass.streams.push(Vec::new());
            return;
        }
    };
    let td = traced.then(Tracer::new);
    out.attempted += 1;
    let t1 = Instant::now();
    let back = adapter::decompress::<F>(&stream, td.as_ref());
    let d_s = t1.elapsed().as_secs_f64();
    match back {
        Ok(back) => {
            out.bound_violations += check::bound_violations(data, &back, BOUND);
            pass.ops.push(Op {
                compress_s: c_s,
                decompress_s: d_s,
            });
        }
        Err(e) => {
            out.errors += 1;
            out.notes.push(e);
            pass.ops.push(failed);
        }
    }
    pass.streams.push(stream);
    if let (Some(tc), Some(td)) = (tc, td) {
        let t = pass.trace.get_or_insert_with(PassTrace::default);
        t.add(
            &format!("{codec} compress {name}"),
            &tc.snapshot(),
            "compress",
            c_s * 1e9,
        );
        t.add(
            &format!("{codec} decompress {name}"),
            &td.snapshot(),
            "decompress",
            d_s * 1e9,
        );
    }
}

fn run_pass(fields: &[Field], traced: bool, out: &mut Outcome) -> Pass {
    let mut pass = Pass::default();
    for codec in CODECS {
        for f in fields {
            match &f.data {
                Data::F32(v) => round_trip(codec, f.name, v, f.dims, traced, &mut pass, out),
                Data::F64(v) => round_trip(codec, f.name, v, f.dims, traced, &mut pass, out),
            }
        }
    }
    pass
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut fields));
        let t0 = Instant::now();
        fields = generate(cfg);
        setups.push(t0.elapsed().as_secs_f64());
    }
    for f in &fields {
        let subnormals = match &f.data {
            Data::F32(v) => check::subnormals(v),
            Data::F64(v) => check::subnormals(v),
        };
        out.inputs.push(Input {
            name: f.name.to_string(),
            shape: f.dims.to_string(),
            bytes: f.bytes(),
            subnormals,
        });
    }

    let rss = PeakRss::start();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<Vec<u8>>> = None;
    while plain.is_empty()
        || (cfg.trace && traced.is_empty())
        || start.elapsed().as_secs_f64() < cfg.seconds
    {
        let trace_this = cfg.trace && plain.len() > traced.len();
        let mut pass = run_pass(&fields, trace_this, &mut out);
        let streams = std::mem::take(&mut pass.streams);
        match &reference {
            None => reference = Some(streams),
            Some(r) => {
                out.mismatches += streams.iter().zip(r).filter(|(a, b)| a != b).count() as u64
            }
        }
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }
    let peak_rss = rss.finish();

    let reference = reference.unwrap_or_default();
    let raw: Vec<f64> = CODECS
        .iter()
        .flat_map(|_| fields.iter().map(|f| f.bytes() as f64))
        .collect();
    let comp_bytes: usize = reference.iter().map(Vec::len).sum();
    let plain_ops: Vec<Vec<Op>> = plain.iter().map(|p| p.ops.clone()).collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), setups.len());
    m.set(
        "ratio",
        raw.iter().sum::<f64>() / comp_bytes.max(1) as f64,
        reference.len(),
    );
    m.set("peak_rss_mib", peak_rss, 1);
    let raw_mib: Vec<f64> = raw.iter().map(|b| b / (1024.0 * 1024.0)).collect();
    batch::end_to_end(m, &mut out.notes, &raw_mib, &plain_ops);

    let m = &mut out.metrics;
    m.set("data.gen_ms", median(&setups) * 1e3, setups.len());
    m.not_exercised(&[
        "parallel.queue_wait_us.p50",
        "parallel.queue_wait_us.max",
        "parallel.worker_busy_frac",
        "parallel.scaling_eff",
        "serve.request.server_ms",
        "serve.wait_ms",
        "serve.busy",
        "serve.generator_lag_ms",
    ]);
    let traces: Vec<PassTrace> = traced.iter().filter_map(|p| p.trace.clone()).collect();
    layer_metrics(&traces, m);
    if cfg.trace {
        let traced_ops: Vec<Vec<Op>> = traced.iter().map(|p| p.ops.clone()).collect();
        let t = batch::total_s(&batch::median_pass(&traced_ops));
        let u = batch::total_s(&batch::median_pass(&plain_ops));
        m.set("trace.overhead_pct", 100.0 * (t / u - 1.0), traced.len());
        coverage_notes(&traces, &mut out.notes);
    } else {
        m.not_exercised(&["trace.overhead_pct"]);
    }
    Ok(out)
}
