//! Per-subsystem metrics: histograms and named counters.
//!
//! The registry is *always on* and updated identically whether or not
//! event tracing is enabled — it never touches the clock or the machine's
//! event counters, so it cannot perturb the simulation. Names are static
//! strings, storage is `BTreeMap`, so iteration order (and therefore every
//! report) is deterministic.

use std::collections::BTreeMap;

/// A log2-bucketed histogram of `u64` samples (cycle latencies, byte
/// counts). Bucket `i` holds samples whose value has `i` significant bits,
/// i.e. `[2^(i-1), 2^i)` for `i > 0` and `{0}` for bucket 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `0.0..=1.0`), estimated from the log2 buckets. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Bucket 64 holds samples ≥ 2^63; its upper bound does not
                // fit in a u64, so clamp instead of shifting by 64.
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        self.max
    }
}

/// The per-subsystem metrics registry: named histograms and named
/// counters. TLB statistics are not kept here: the machine's MMUs own
/// them, and `Machine::metrics_report` appends them to [`report`].
///
/// [`report`]: MetricsRegistry::report
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: BTreeMap<&'static str, Histogram>,
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records a sample into the named histogram (created on first use).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Adds `delta` to the named counter (created on first use),
    /// saturating at `u64::MAX` so long soak runs cannot overflow.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All histograms in deterministic (name) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// All counters in deterministic (name) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Renders a plain-text report: histograms (count/mean/p50/p99/max)
    /// and counters.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== metrics: histograms (simulated cycles) ==");
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>12} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "{:<32} {:>9} {:>12.1} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max()
            );
        }
        let _ = writeln!(out, "== metrics: counters ==");
        for (name, v) in self.counters() {
            let _ = writeln!(out, "{name:<32} {v:>12}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!(h.mean() > 184.0 && h.mean() < 185.0);
        // p50 of [0,1,2,3,100,1000]: third sample (value 2) → bucket 2^2.
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn quantile_of_top_bucket_clamps_instead_of_overflowing() {
        // Samples ≥ 2^63 land in bucket 64, whose upper bound would be
        // `1u64 << 64` — a shift overflow (debug panic). The quantile must
        // clamp to u64::MAX instead.
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(1u64 << 63);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn counter_add_saturates_instead_of_overflowing() {
        let mut m = MetricsRegistry::new();
        m.add("soak", u64::MAX - 1);
        m.add("soak", 5);
        assert_eq!(m.counter("soak"), u64::MAX);
        m.add("soak", 1);
        assert_eq!(m.counter("soak"), u64::MAX);
    }

    #[test]
    fn registry_counters_and_report_are_deterministic() {
        let mut m = MetricsRegistry::new();
        m.add("z.last", 1);
        m.add("a.first", 41);
        m.add("a.first", 1);
        m.observe("lat", 300);
        assert_eq!(m.counter("a.first"), 42);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        let r1 = m.report();
        let r2 = m.report();
        assert_eq!(r1, r2);
        assert!(r1.contains("a.first"));
        assert!(!r1.contains("tlb"), "the machine renders TLB statistics");
    }
}
