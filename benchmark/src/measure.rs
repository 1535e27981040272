//! Timing helpers and the run's result sheet.

use std::time::{Duration, Instant};

/// Samples of one quantity (one per repetition or per time window).
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Quantile by nearest rank on the sorted samples; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = (q * (v.len() - 1) as f64).round() as usize;
        v[rank.min(v.len() - 1)]
    }

    /// Median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    pub fn stat(&self) -> Stat {
        let v = self.sorted();
        Stat {
            value: self.median(),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            n: v.len(),
        }
    }

    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples(self.0.iter().map(|&v| f(v)).collect())
    }
}

/// A reported value: the median of `n` samples, with their range.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn single(value: f64) -> Stat {
        Stat { value, min: value, max: value, n: 1 }
    }
}

/// SplitMix64: what a run draws from its `--seed`. Stream `i` of a seed is
/// independent of its other streams (one per load thread for the request
/// order, one for the record sample).
pub struct Draws(u64);

impl Draws {
    pub fn new(seed: u64, stream: usize) -> Draws {
        Draws(seed ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A number below `n`.
    pub fn next(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Run `f` until `budget` is spent and at least `min_reps` repetitions
/// are done; each call returns its own elapsed seconds (so a repetition
/// can exclude its own checks from the timed region).
pub fn repeat(budget: Duration, min_reps: usize, mut f: impl FnMut(usize) -> f64) -> Samples {
    let start = Instant::now();
    let mut out = Samples::default();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(f(out.len()));
    }
    out
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median seconds per call of a sub-microsecond `f`, from `batches`
/// batches of `per_batch` calls.
pub fn micro(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        s.push(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
    s.median()
}

/// glibc raises its mmap and trim thresholds when a large mapped block
/// is first freed. Until then a process that builds megabyte-sized
/// structures (a 500-tree program is 1.5 MB) may map, fault and unmap
/// them on every repetition, depending on which blocks were freed
/// before: registering the 500-tree model of `serve_paper500` took 1.9 ms
/// or 3.0 ms for a whole run, two runs in ten. Freeing one block just under the 32 MB
/// cap up front puts every run in the state a long-lived process
/// reaches anyway (six runs in six at 1.9 ms).
pub fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 31 << 20]));
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Start the peak over after set-up. Set-up holds a workload's population
/// and the run's sample of it at once, more than any measured phase holds,
/// and glibc keeps the freed population as free heap pages: the measured
/// phases would grow into those unseen (`higgs_dense`: 112 MB resident
/// after set-up, 57 MB of it free). So give the free pages back
/// (`malloc_trim`) and reset `VmHWM` (`5` to `clear_refs`). Where either
/// is refused, the peak includes set-up, on every run alike.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one run reports: metrics by name, deterministic work
/// counts, and the tally of operations attempted and failed.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<(&'static str, Stat)>,
    pub counts: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Sheet {
    pub fn metric(&mut self, name: &'static str, stat: Stat) {
        self.metrics.push((name, stat));
    }

    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metric(name, Stat::single(value));
    }

    /// A work count that must repeat exactly between runs of one seed.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// Tally `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// One correctness check: counted as an operation, logged when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("CHECK FAILED: {what}");
        }
    }

    pub fn get(&self, name: &str) -> Option<Stat> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }
}
