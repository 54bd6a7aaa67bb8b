//! Peak resident memory over a measured phase, sampled from
//! `/proc/self/status` so that set-up allocations do not count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Resident set size in KiB, or 0 where `/proc` is unavailable.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A sampler thread recording the highest RSS seen until stopped.
pub struct PeakRss {
    baseline_kib: u64,
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl PeakRss {
    pub fn start() -> Self {
        let baseline_kib = rss_kib();
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(baseline_kib));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let thread = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(rss_kib(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        PeakRss {
            baseline_kib,
            stop,
            peak,
            thread: Some(thread),
        }
    }

    /// The resident set when sampling started, in MiB: what the
    /// benchmark itself holds before the measured phase.
    pub fn baseline_mib(&self) -> f64 {
        self.baseline_kib as f64 / 1024.0
    }

    /// Stops the sampler and returns the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("RSS sampler panicked");
        }
        self.peak.fetch_max(rss_kib(), Ordering::Relaxed);
        self.peak.load(Ordering::Relaxed) as f64 / 1024.0
    }
}
