//! End-to-end and per-layer benchmark for pwrel. See README.md.
//!
//! `perfbench --workload <snapshot|stream|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header, a table of metrics with units and sample counts, and
//! as its last line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced with `--trace 0`, the
//! per-layer metrics from a traced run with `--trace 1`).

mod adapter;
mod batch;
mod check;
mod report;
mod rss;
mod serve;
mod snapshot;
mod spans;
mod stats;
mod stream;

use std::process::ExitCode;

/// How often a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Run parameters shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and rates, for the smoke tests.
    pub tiny: bool,
}

impl Config {
    /// A seed for input `k` of this run, decorrelated from the others.
    pub fn seed_for(&self, k: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse::<u32>().map_err(|_| bad())? as f64,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The kernel-dispatch overrides that `is_set` reports as set.
fn overrides_set(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    adapter::KERNEL_OVERRIDES
        .into_iter()
        .filter(|v| is_set(v))
        .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let (workload, cfg) = parse_args(args)?;
    let set = overrides_set(|v| std::env::var_os(v).is_some());
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with kernel-dispatch overrides set: {}",
            set.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("# git_rev={}", git_rev());
    println!("# rustc={}", rustc_version());
    println!("# nproc={nproc} cpu={}", cpu_model());
    let out = match workload.as_str() {
        "snapshot" => snapshot::run(&cfg)?,
        "stream" => stream::run(&cfg)?,
        "serve" => serve::run(&cfg)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (snapshot, stream, serve)"
            ))
        }
    };
    for i in &out.inputs {
        println!(
            "# input {} shape={} bytes={} subnormals={}",
            i.name, i.shape, i.bytes, i.subnormals
        );
    }
    let table: &[(&str, &str)] = if cfg.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!("{}", report::render(&out, table)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Config {
        Config {
            seed: 7,
            seconds: 1.0,
            trace,
            tiny: true,
        }
    }

    /// Runs a workload on tiny inputs, both untraced and traced, and
    /// checks that it is correct and reports every metric.
    fn smoke(run: fn(&Config) -> Result<report::Outcome, String>) {
        for trace in [false, true] {
            let out = run(&tiny(trace)).expect("workload runs");
            assert!(out.correct(), "trace={trace}: {out:?}");
            assert!(out.attempted > 0);
            let table: &[(&str, &str)] = if trace {
                &report::PER_LAYER
            } else {
                &report::END_TO_END
            };
            let text = report::render(&out, table).expect("every metric measured");
            let last = text.lines().last().expect("result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            for (name, unit) in table {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
            if !trace {
                for (name, _) in report::END_TO_END {
                    assert!(out.metrics.0[name].value > 0.0, "{name} is 0");
                }
            }
        }
    }

    #[test]
    fn snapshot_smoke() {
        smoke(snapshot::run);
    }

    #[test]
    fn stream_smoke() {
        smoke(stream::run);
    }

    #[test]
    fn serve_smoke() {
        smoke(serve::run);
    }

    #[test]
    fn kernel_overrides_are_refused() {
        assert!(overrides_set(|_| false).is_empty());
        assert_eq!(overrides_set(|v| v == "PWREL_LIFT"), ["PWREL_LIFT"]);
        assert_eq!(overrides_set(|_| true).len(), 4);
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (w, cfg) =
            parse_args(&args("--workload serve --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve", 3, 5.0, true)
        );
        assert!(parse_args(&args("--workload serve --trace 2")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--workload serve --seconds 0")).is_err());
    }
}
