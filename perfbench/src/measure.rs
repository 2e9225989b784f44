//! Clocks, process counters, the host-speed gauge, medians and the result
//! line.

use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> f64 {
    let mut u = RUsage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        counters: [0; 14],
    };
    // SAFETY: `u` is a live, writable value laid out as the C `struct
    // rusage` of this platform, and `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// High-water resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// A wall-clock + process-CPU stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start both clocks now.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Elapsed `(wall, cpu)` seconds.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// One timed interval: work items completed, wall and CPU seconds spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Work items completed in the interval.
    pub items: u64,
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Items per wall second and per CPU second over all `intervals` together.
///
/// This host shares its cores: for stretches of seconds a round runs up
/// to 40% slower than the one before it. The median over rounds jumps
/// between the slow and the fast state from run to run, while the pooled
/// rate moves only with the share of time spent in each, so it is the
/// steadier of the two.
pub fn pooled_rates(intervals: &[Interval]) -> (f64, f64) {
    let items: u64 = intervals.iter().map(|i| i.items).sum();
    let wall: f64 = intervals.iter().map(|i| i.wall).sum();
    let cpu: f64 = intervals.iter().map(|i| i.cpu).sum();
    (items as f64 / wall, items as f64 / cpu)
}

/// Iterations per second of [`Gauge`]'s loop on the reference host.
pub const GAUGE_REFERENCE_PER_S: f64 = 1e8;

/// Iterations of one gauge pass (about 10 ms).
const GAUGE_ITERS: u64 = 1_000_000;

/// Minimum wall seconds between two gauge samples.
const GAUGE_EVERY_S: f64 = 0.25;

/// Share of the wall time since the last sample that a sample spends in
/// the gauge loop, so that long gaps are gauged as closely as short ones.
const GAUGE_SHARE: f64 = 0.04;

/// A host-speed gauge: a fixed single-thread loop of integer and
/// floating-point work, timed in the untimed gaps of a run.
///
/// This host shares its cores. Its speed moves by 20–40% in phases of
/// seconds to minutes, and drifts by about as much over half an hour. User
/// CPU time moves with it, so neither wall nor CPU time removes it. The
/// gauge loop slows with the benchmark's work: over eight runs per
/// workload, dividing each run's rate by its gauge speed cut the
/// quartile spread from 11–19% to 5–11%. The end-to-end figures are
/// therefore given at the reference speed [`GAUGE_REFERENCE_PER_S`].
#[derive(Debug, Default)]
pub struct Gauge {
    last: Option<Instant>,
    iters: u64,
    secs: f64,
}

impl Gauge {
    /// Time passes of the loop for `GAUGE_SHARE` of the time since the
    /// last sample (at least one pass), unless that is under
    /// `GAUGE_EVERY_S` seconds.
    pub fn sample(&mut self) {
        let since = self.last.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if self.last.is_some() && since < GAUGE_EVERY_S {
            return;
        }
        let t = Instant::now();
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut acc = 0.0f64;
        loop {
            for _ in 0..GAUGE_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                acc += (-(1.0 - u).ln()).sqrt();
            }
            self.iters += GAUGE_ITERS;
            if t.elapsed().as_secs_f64() >= since * GAUGE_SHARE {
                break;
            }
        }
        std::hint::black_box(acc);
        self.secs += t.elapsed().as_secs_f64();
        self.last = Some(Instant::now());
    }

    /// Host speed over the run as a share of the reference speed; a
    /// duration times this share is the duration on the reference host.
    pub fn speed(&self) -> f64 {
        assert!(self.iters > 0, "the gauge was never sampled");
        self.iters as f64 / self.secs / GAUGE_REFERENCE_PER_S
    }
}

/// The end-to-end figures but `peak_rss_mb`, at the reference host speed:
/// pooled rates over `intervals` and the median of `setup_times`.
pub fn end_to_end(intervals: &[Interval], setup_times: &[f64], gauge: &Gauge) -> Vec<Metric> {
    let (work_per_s, work_per_cpu_s) = pooled_rates(intervals);
    let speed = gauge.speed();
    eprintln!(
        "host speed {speed:.3} of the reference; unscaled: work_per_s {work_per_s:.0}, \
         work_per_cpu_s {work_per_cpu_s:.0}, setup_s {:.6}",
        median(setup_times)
    );
    vec![
        metric("work_per_s", work_per_s / speed, "items/s"),
        metric("work_per_cpu_s", work_per_cpu_s / speed, "items/s"),
        metric("setup_s", median(setup_times) * speed, "s"),
    ]
}

/// Collected failures of the independent output checks.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record `msg` as a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation that did not fail passed its checks.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(
                    m.value.is_finite(),
                    "metric {} is not finite: {}",
                    m.name,
                    m.value
                );
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.passed(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Append `peak_rss_mb` to an untraced run's metrics.
pub fn with_rss(mut metrics: Vec<Metric>, trace: bool) -> Vec<Metric> {
    if !trace {
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    }
    metrics
}

/// SplitMix64 finaliser: derives independent per-round seeds from the
/// run's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_counters_are_live() {
        let start = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(
            cpu_seconds() > start,
            "CPU time must advance while spinning"
        );
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn gauge_speed_is_positive_and_throttled() {
        let mut g = Gauge::default();
        g.sample();
        g.sample();
        assert_eq!(
            g.iters, GAUGE_ITERS,
            "a second pass within the gap is skipped"
        );
        assert!(g.speed() > 0.0 && g.speed().is_finite());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let o = Outcome {
            checks: Checks::default(),
            attempted: 3,
            failed: 1,
            metrics: vec![metric("setup_s", 0.5, "s")],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
