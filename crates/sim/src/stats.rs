//! Measurement instruments for experiments.
//!
//! The paper reports round-trip latencies (Table 1) and sustained
//! throughputs (Figures 2–4). These instruments collect exactly those
//! quantities from simulated time, with warm-up trimming so that steady
//! state — not queue-fill transients — is what gets reported.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/min/max/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Measures sustained throughput: bytes delivered over a simulated window,
/// with the first `warmup` deliveries discarded.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    warmup_remaining: u64,
    started: Option<SimTime>,
    last: SimTime,
    bytes: u64,
    deliveries: u64,
}

impl ThroughputMeter {
    /// A meter that ignores the first `warmup_deliveries` deliveries (they
    /// charge pipeline-fill cost to no one) and starts timing at the first
    /// counted delivery.
    pub fn new(warmup_deliveries: u64) -> Self {
        ThroughputMeter {
            warmup_remaining: warmup_deliveries,
            started: None,
            last: SimTime::ZERO,
            bytes: 0,
            deliveries: 0,
        }
    }

    /// Records a delivery of `bytes` completing at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            // The measurement window opens when warm-up ends.
            self.started = Some(now);
            return;
        }
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.bytes += bytes;
        self.deliveries += 1;
        self.last = now;
    }

    /// Counted (post-warm-up) deliveries.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Counted bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Measured window, from end of warm-up to the last delivery.
    pub fn window(&self) -> SimDuration {
        match self.started {
            Some(s) => self.last.saturating_since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Sustained throughput in Mbps over the measured window.
    ///
    /// Returns 0 when fewer than two deliveries were counted (no window).
    pub fn mbps(&self) -> f64 {
        let w = self.window();
        if w.is_zero() || self.deliveries < 2 {
            return 0.0;
        }
        w.mbps_for_bytes(self.bytes)
    }
}

/// Latency sample collector reporting in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    stats: RunningStats,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        LatencyStats {
            stats: RunningStats::new(),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.stats.record(d.as_us_f64());
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation in microseconds.
    pub fn std_dev_us(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Minimum sample in microseconds.
    pub fn min_us(&self) -> f64 {
        self.stats.min().unwrap_or(0.0)
    }

    /// Maximum sample in microseconds.
    pub fn max_us(&self) -> f64 {
        self.stats.max().unwrap_or(0.0)
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }
}

/// A log-scaled histogram of durations (power-of-√2 buckets from 1 µs),
/// supporting percentile queries. Used to report latency distributions,
/// not just means — jitter mattered to the paper's multimedia motivation.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: SimDuration,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationHistogram {
    /// Bucket boundaries grow by √2 per bucket starting at 1 µs; 64
    /// buckets cover up to ~6 hours.
    const BUCKETS: usize = 64;

    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            max: SimDuration::ZERO,
        }
    }

    fn bucket_of(d: SimDuration) -> usize {
        let us = d.as_us_f64().max(1e-9);
        // index = 2 * log2(us), clamped.
        let idx = (2.0 * us.log2()).ceil().max(0.0) as usize;
        idx.min(Self::BUCKETS - 1)
    }

    /// Upper bound of bucket `i` in microseconds.
    fn bucket_upper_us(i: usize) -> f64 {
        2f64.powf(i as f64 / 2.0)
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.max = self.max.max(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate percentile (`0.0..=1.0`) in microseconds: the upper
    /// bound of the bucket containing that rank. Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_us(i).min(self.max.as_us_f64());
            }
        }
        self.max.as_us_f64()
    }
}

/// A labelled monotonic counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_and_bounds() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(8.0));
        // population std dev of {2,4,6,8} = sqrt(5)
        assert!((s.std_dev() - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn throughput_meter_basic_rate() {
        // 1000 bytes every 10 us after a 1-delivery warm-up.
        let mut m = ThroughputMeter::new(1);
        for i in 0..11u64 {
            m.record(SimTime::from_us(10 * i), 1000);
        }
        // Warm-up consumed delivery 0 and opened the window at t=0;
        // 10 counted deliveries of 1000 B over 100 us = exactly the
        // steady-state rate of 1000 B / 10 us = 800 Mbps.
        assert_eq!(m.deliveries(), 10);
        assert_eq!(m.bytes(), 10_000);
        assert!((m.mbps() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_meter_needs_two_samples() {
        let mut m = ThroughputMeter::new(0);
        m.record(SimTime::from_us(5), 100);
        assert_eq!(m.mbps(), 0.0);
    }

    #[test]
    fn latency_stats_in_us() {
        let mut l = LatencyStats::new();
        l.record(SimDuration::from_us(100));
        l.record(SimDuration::from_us(300));
        assert_eq!(l.count(), 2);
        assert!((l.mean_us() - 200.0).abs() < 1e-9);
        assert_eq!(l.min_us(), 100.0);
        assert_eq!(l.max_us(), 300.0);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let mut h = DurationHistogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), SimDuration::from_us(1000));
        let p50 = h.percentile_us(0.5);
        // √2 buckets: the answer is within one bucket of the true median.
        assert!((354.0..=724.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!(p99 >= p50);
        assert!(p99 <= 1000.0 + 1e-9);
        assert_eq!(h.percentile_us(1.0), 1000.0);
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_us(75));
        for p in [0.0, 0.5, 1.0] {
            let v = h.percentile_us(p);
            assert!((53.0..=75.01).contains(&v), "p{p} = {v}");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = DurationHistogram::new();
        assert_eq!(h.percentile_us(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_ps(1)); // sub-microsecond
        h.record(SimDuration::from_secs(10_000)); // beyond the last bucket
        assert_eq!(h.count(), 2);
        assert!(h.percentile_us(1.0) > 0.0);
    }

    #[test]
    fn counter_ops() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
