//! `serve`: `pwrel-serve` with its default configuration on loopback,
//! driven by one generator over 2 connections with an open-loop seeded
//! schedule: 3 sz_t compress requests (1 MiB NYX-like bodies) to 1
//! decompress of a stream made during set-up. The protocol, admission
//! and the per-request chunk pipeline do the work here.
//!
//! Rates are fixed in requests per second, never derived from the code
//! being measured, so figures compare across commits. Each request is
//! timed from the moment it was due, so a stalled generator or a busy
//! connection shows as latency rather than as a lighter load.
//!
//! The server records every request into its own trace sink and has no
//! setting to turn that off, so the end-to-end figures here include the
//! server's tracing and `trace.overhead_pct` is not measured.

use crate::adapter::{self, Conn, Dims, Service};
use crate::report::{Input, Outcome};
use crate::rss::PeakRss;
use crate::stats::{median, percentile};
use crate::{check, Config, SETUP_REPEATS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BOUND: f64 = 1e-3;
const CODEC: &str = "sz_t";
/// Client connections, one per CPU of the 2-CPU reference host.
const CONNS: usize = 2;
/// Distinct request bodies; requests pick among them by seed.
const BODIES: usize = 8;
/// The nominal offered load, requests per second: about a seventh of
/// what the 2-CPU reference host sustains, so that queueing adds little
/// to the tail when the host slows down.
const NOMINAL_RPS: f64 = 25.0;
/// Slices of the nominal-rate load in an untraced run. They alternate
/// with the ladder's probes, so that the latency figures sample the
/// whole run: on a shared host the speed drifts over tens of seconds,
/// and one contiguous phase catches only part of that drift.
const NOMINAL_SLICES: usize = 4;
/// The ladder for `sustained_rps`: rung k offers
/// `NOMINAL_RPS * LADDER_STEP^k` requests per second, k = 1..=LADDER_RUNGS.
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: i32 = 72;
/// The p95 latency a rate must meet to count as sustained.
const LIMIT_MS: f64 = 100.0;
/// Requests at the nominal rate, and per ladder probe: enough for ten
/// samples beyond p95.
const MIN_REQUESTS: usize = 200;
/// Shares of `--seconds` that the nominal slices together and a probed
/// ladder rung run for, when that sends more than `MIN_REQUESTS`. The
/// nominal slices take about half the run and the bisected ladder the
/// other half.
const NOMINAL_SHARE: f64 = 1.0 / 2.0;
const RUNG_SHARE: f64 = 1.0 / 20.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Compress,
    Decompress,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Seconds after the phase start at which the request is due.
    pub due_s: f64,
    pub kind: Kind,
    pub body: usize,
}

/// One request as it happened, in seconds after the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub req: Req,
    pub sent_s: f64,
    pub done_s: f64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time; a failed request never meets a limit.
    pub fn latency_s(&self) -> f64 {
        if self.ok {
            self.done_s - self.req.due_s
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request.
    pub fn lag_s(&self) -> f64 {
        (self.sent_s - self.req.due_s).max(0.0)
    }
}

/// A small seeded generator (splitmix64) for the schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` requests at `rate` per second: evenly spaced slots with a seeded
/// jitter of up to a quarter slot, one decompress at a seeded place in
/// every four requests, and a seeded body per request.
pub fn schedule(rate: f64, n: usize, seed: u64) -> Vec<Req> {
    let mut rng = Rng(seed);
    let mut decompress_at = 0;
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                decompress_at = (rng.next() % 4) as usize;
            }
            Req {
                due_s: (i as f64 + 0.5 * rng.unit() - 0.25).max(0.0) / rate,
                kind: if i % 4 == decompress_at {
                    Kind::Decompress
                } else {
                    Kind::Compress
                },
                body: (rng.next() % BODIES as u64) as usize,
            }
        })
        .collect()
}

/// Sends `reqs` open-loop over `conns` connections: each connection
/// takes the next request, waits until it is due (not at all when it is
/// already late) and runs `exec(connection, request)`.
pub fn run_schedule<E>(reqs: &[Req], conns: usize, exec: E) -> Vec<Sample>
where
    E: Fn(usize, &Req) -> bool + Sync,
{
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (next, exec) = (&next, &exec);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let due = t0 + Duration::from_secs_f64(req.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent_s = t0.elapsed().as_secs_f64();
                        let ok = exec(c, req);
                        let done_s = t0.elapsed().as_secs_f64();
                        mine.push(Sample {
                            req: *req,
                            sent_s,
                            done_s,
                            ok,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.req.due_s.total_cmp(&b.req.due_s));
    samples
}

/// Whether a phase met the latency limit without a growing backlog:
/// p95 within the limit, and the last request done within the limit of
/// the last due time.
fn sustained(samples: &[Sample]) -> bool {
    let lat: Vec<f64> = samples.iter().map(Sample::latency_s).collect();
    let last_due = samples.iter().map(|s| s.req.due_s).fold(0.0, f64::max);
    let last_done = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    percentile(&lat, 95.0) * 1e3 <= LIMIT_MS && (last_done - last_due) * 1e3 <= LIMIT_MS
}

struct Setup {
    svc: Service,
    dims: Dims,
    bodies: Vec<Vec<f32>>,
    bodies_le: Vec<Vec<u8>>,
    /// Elements per frame that compress requests ask for.
    chunk_elems: usize,
    /// The local framed-stream compress of each body: what the server
    /// must send back, and what decompress requests send.
    streams: Vec<Vec<u8>>,
}

fn setup(cfg: &Config) -> Result<(Setup, f64), String> {
    let n = if cfg.tiny { 16 } else { 64 };
    let dims = Dims::d3(n, n, n);
    let t0 = Instant::now();
    let bodies: Vec<Vec<f32>> = (0..BODIES)
        .map(|k| adapter::nyx_density(dims, cfg.seed_for(k as u64)))
        .collect();
    let gen_s = t0.elapsed().as_secs_f64();
    let bodies_le = bodies
        .iter()
        .map(|b| b.iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();
    // One frame per body, asked for explicitly so that the reference
    // does not depend on the server's default frame size.
    let chunk_elems = dims.len();
    let streams = bodies
        .iter()
        .map(|b| adapter::stream_compress_local(CODEC, b, dims, BOUND, chunk_elems))
        .collect::<Result<_, _>>()?;
    let svc = Service::start()?;
    Ok((
        Setup {
            svc,
            dims,
            bodies,
            bodies_le,
            chunk_elems,
            streams,
        },
        gen_s,
    ))
}

/// Counters the request closures share.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    errors: AtomicU64,
    mismatches: AtomicU64,
    violations: AtomicU64,
    first_error: Mutex<Option<String>>,
}

/// Runs one phase of `reqs` against the server, checking every response.
fn phase(s: &Setup, reqs: &[Req], tally: &Tally) -> Vec<Sample> {
    let conns: Vec<Mutex<Option<Conn>>> = (0..CONNS).map(|_| Mutex::new(None)).collect();
    run_schedule(reqs, CONNS, |c, req| {
        tally.sent.fetch_add(1, Ordering::Relaxed);
        let mut slot = conns[c].lock().expect("connection slot poisoned");
        let result = (|| {
            if slot.is_none() {
                *slot = Some(s.svc.connect()?);
            }
            let conn = slot.as_mut().expect("connected above");
            match req.kind {
                Kind::Compress => {
                    let got = conn.compress_f32(
                        CODEC,
                        &s.bodies_le[req.body],
                        s.dims,
                        BOUND,
                        s.chunk_elems,
                    )?;
                    if got != s.streams[req.body] {
                        tally.mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Kind::Decompress => {
                    let back = conn.decompress_f32(&s.streams[req.body])?;
                    let v = check::bound_violations(&s.bodies[req.body], &back, BOUND);
                    tally.violations.fetch_add(v, Ordering::Relaxed);
                }
            }
            Ok::<(), String>(())
        })();
        match result {
            Ok(()) => true,
            Err(e) => {
                // The protocol closes a connection after an error response.
                *slot = None;
                tally.errors.fetch_add(1, Ordering::Relaxed);
                tally
                    .first_error
                    .lock()
                    .expect("error slot poisoned")
                    .get_or_insert(e);
                false
            }
        }
    })
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    let mut current = None;
    for _ in 0..SETUP_REPEATS {
        // Shut the previous server down before timing the next set-up.
        drop(current.take());
        let t0 = Instant::now();
        let (s, gen_s) = setup(cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
        gens.push(gen_s);
        current = Some(s);
    }
    let s = current.expect("set up at least once");
    for (k, b) in s.bodies.iter().enumerate() {
        out.inputs.push(Input {
            name: format!("nyx_like.body{k}"),
            shape: s.dims.to_string(),
            bytes: b.len() * 4,
            subnormals: check::subnormals(b),
        });
    }

    let (nominal_rps, rungs) = if cfg.tiny {
        (50.0, 2)
    } else {
        (NOMINAL_RPS, LADDER_RUNGS)
    };
    // Every phase sends at least MIN_REQUESTS.
    let n_for = |rate: f64, share: f64| {
        if cfg.tiny {
            8
        } else {
            MIN_REQUESTS.max((rate * cfg.seconds * share) as usize)
        }
    };
    let n_nominal = n_for(nominal_rps, NOMINAL_SHARE);
    // Tiny runs keep whole phases, so that every slice holds a
    // decompress request.
    let n_slice = if cfg.tiny {
        n_nominal
    } else {
        n_nominal.div_ceil(NOMINAL_SLICES)
    };
    let tally = Tally::default();
    let phase_seed = std::cell::Cell::new(1000u64);
    let run_phase = |rate: f64, n: usize| {
        phase_seed.set(phase_seed.get() + 1);
        phase(
            &s,
            &schedule(rate, n, cfg.seed_for(phase_seed.get())),
            &tally,
        )
    };
    // A rate counts as sustained unless two phases at it both miss, so
    // that one transient host stall does not decide the figure.
    let sustains =
        |rate: f64, n: usize| sustained(&run_phase(rate, n)) || sustained(&run_phase(rate, n));

    let slice = || run_phase(nominal_rps, n_slice);
    // Memory is sampled before any ladder probe: the allocator keeps what
    // the higher rates took, so later slices would show the ladder's peak.
    let rss = PeakRss::start();
    let mut nominal = vec![slice()];
    let peak_rss = rss.finish();
    let mut traced = None;
    let mut sustained_rps = 0.0;
    if cfg.trace {
        // A fresh connection each time: the server drops one left idle
        // for longer than its read timeout.
        let before = s.svc.connect()?.metrics()?;
        let samples = run_phase(nominal_rps, n_nominal);
        let after = s.svc.connect()?.metrics()?;
        traced = Some((samples, before, after));
    } else {
        if !sustained(&nominal[0]) {
            nominal.push(slice());
        }
        if nominal.iter().any(|p| sustained(p)) {
            // Bisect the ladder for its highest sustained rung, on the
            // assumption that a rate above a failing one fails too. A
            // nominal slice follows every second probe.
            let rate = |k: i32| nominal_rps * LADDER_STEP.powi(k);
            let (mut lo, mut hi) = (0, rungs + 1);
            let mut probes = 0;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if sustains(rate(mid), n_for(rate(mid), RUNG_SHARE)) {
                    lo = mid;
                } else {
                    hi = mid;
                }
                probes += 1;
                if probes % 2 == 0 && nominal.len() < NOMINAL_SLICES {
                    nominal.push(slice());
                }
            }
            sustained_rps = rate(lo);
        }
        while nominal.len() < NOMINAL_SLICES {
            nominal.push(slice());
        }
    }

    out.attempted = tally.sent.load(Ordering::Relaxed);
    out.errors = tally.errors.load(Ordering::Relaxed);
    out.mismatches = tally.mismatches.load(Ordering::Relaxed);
    out.bound_violations = tally.violations.load(Ordering::Relaxed);
    if let Some(e) = tally
        .first_error
        .lock()
        .expect("error slot poisoned")
        .take()
    {
        out.notes.push(format!("first failed request: {e}"));
    }

    let mib = (s.dims.len() * 4) as f64 / (1024.0 * 1024.0);
    let all: Vec<&Sample> = nominal.iter().flatten().collect();
    let latencies_ms: Vec<f64> = all.iter().map(|x| x.latency_s() * 1e3).collect();
    let rate_of = |kind: Kind| {
        let rates: Vec<f64> = all
            .iter()
            .filter(|x| x.ok && x.req.kind == kind)
            .map(|x| mib / (x.done_s - x.sent_s))
            .collect();
        (median(&rates), rates.len())
    };
    let (c_rate, nc) = rate_of(Kind::Compress);
    let (d_rate, nd) = rate_of(Kind::Decompress);
    let (raw, comp) =
        all.iter()
            .filter(|x| x.req.kind == Kind::Compress)
            .fold((0.0, 0.0), |(r, c), x| {
                (
                    r + mib,
                    c + s.streams[x.req.body].len() as f64 / (1024.0 * 1024.0),
                )
            });
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), setups.len());
    m.set("compress_mib_s", c_rate, nc);
    m.set("decompress_mib_s", d_rate, nd);
    m.set("ratio", raw / comp, nc);
    m.set("peak_rss_mib", peak_rss, 1);
    m.set("req_p50_ms", percentile(&latencies_ms, 50.0), all.len());
    m.set("req_p95_ms", percentile(&latencies_ms, 95.0), all.len());
    m.set("sustained_rps", sustained_rps, 1);

    m.set("data.gen_ms", median(&gens) * 1e3, gens.len());
    m.not_exercised(&[
        "core.transform.self_ms",
        "core.transform_inv.self_ms",
        "core.signs.self_ms",
        "sz.predict_quantize.self_ms",
        "sz.reconstruct.self_ms",
        "lossless.huffman.self_ms",
        "lossless.lz.self_ms",
        "zfp.lift.self_ms",
        "zfp.plane_code.self_ms",
        "pipeline.compress.self_ms",
        "pipeline.decompress.self_ms",
        "parallel.queue_wait_us.p50",
        "parallel.queue_wait_us.max",
        "parallel.worker_busy_frac",
        "parallel.scaling_eff",
    ]);
    match traced {
        Some((samples, before, after)) => {
            let d = |k: &str| delta(&after, &before, k);
            // The `before` metrics request itself is one of the counted calls.
            let calls = (d("trace_span_serve.request_calls") - 1.0).max(1.0);
            let server_ms = d("trace_span_serve.request_ns_total") / calls / 1e6;
            let mean_ms =
                samples.iter().map(|x| x.latency_s()).sum::<f64>() * 1e3 / samples.len() as f64;
            let codec_ns =
                d("trace_span_serve.compress_ns_total") + d("trace_span_serve.decompress_ns_total");
            let wall_ns: f64 = samples.iter().map(|x| (x.done_s - x.sent_s) * 1e9).sum();
            let hits = d("trace_arena_hits");
            let lag: Vec<f64> = samples.iter().map(|x| x.lag_s() * 1e3).collect();
            let n = samples.len();
            m.set("serve.request.server_ms", server_ms, calls as usize);
            m.set("serve.wait_ms", mean_ms - server_ms, n);
            m.set("serve.busy", d("trace_serve_busy"), n);
            m.set("serve.generator_lag_ms", percentile(&lag, 95.0), n);
            m.set("sz.quant_outliers", d("trace_quant_outliers"), n);
            m.set("pipeline.stream_chunks", d("trace_stream_chunks"), n);
            m.set(
                "pipeline.arena_hit_frac",
                hits / (hits + d("trace_arena_misses")).max(1.0),
                n,
            );
            m.set("parallel.pool_tasks", d("trace_pool_tasks"), n);
            m.set("unattributed_pct", 100.0 * (1.0 - codec_ns / wall_ns), n);
            m.not_exercised(&["trace.overhead_pct"]);
            out.notes.push(
                "trace.overhead_pct is not measured: the server always records into its \
                 own trace sink, so every phase is traced the same way"
                    .to_string(),
            );
            if codec_ns < 0.95 * wall_ns {
                let request_ns = d("trace_span_serve.request_ns_total");
                out.notes.push(format!(
                    "server codec spans cover only {:.1}% of the client's request time \
                     (serve.request covers {:.1}%)",
                    100.0 * codec_ns / wall_ns,
                    100.0 * request_ns / wall_ns
                ));
            }
        }
        None => m.not_exercised(&[
            "serve.request.server_ms",
            "serve.wait_ms",
            "serve.busy",
            "serve.generator_lag_ms",
            "sz.quant_outliers",
            "pipeline.stream_chunks",
            "pipeline.arena_hit_frac",
            "parallel.pool_tasks",
            "unattributed_pct",
            "trace.overhead_pct",
        ]),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_three_to_one() {
        let a = schedule(100.0, 400, 7);
        let b = schedule(100.0, 400, 7);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_s == y.due_s && x.kind == y.kind));
        let dec = a.iter().filter(|r| r.kind == Kind::Decompress).count();
        assert_eq!(dec, 100);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!((a[399].due_s - 3.99).abs() < 0.01);
        let c = schedule(100.0, 400, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.due_s != y.due_s));
    }

    #[test]
    fn latency_counts_from_the_due_time_when_the_generator_stalls() {
        // One connection, a request every 10 ms, and the first request
        // stalls for 100 ms: the ones queued behind it are late, and
        // their latency includes the wait.
        let reqs: Vec<Req> = (0..5)
            .map(|i| Req {
                due_s: i as f64 * 0.010,
                kind: Kind::Compress,
                body: 0,
            })
            .collect();
        let samples = run_schedule(&reqs, 1, |_, r| {
            let ms = if r.due_s == 0.0 { 100 } else { 1 };
            std::thread::sleep(Duration::from_millis(ms));
            true
        });
        assert_eq!(samples.len(), 5);
        assert!(samples[0].latency_s() >= 0.100);
        for s in &samples[1..] {
            let stall_left = 0.100 - s.req.due_s;
            assert!(s.lag_s() >= stall_left, "lag {} < {stall_left}", s.lag_s());
            assert!(s.latency_s() >= stall_left + 0.001);
            assert!(s.latency_s() >= s.done_s - s.sent_s);
        }
        // A failed request never meets a latency limit.
        let failed = run_schedule(&reqs[..1], 1, |_, _| false);
        assert_eq!(failed[0].latency_s(), f64::INFINITY);
    }
}
