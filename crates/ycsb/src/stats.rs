//! Latency histograms and run metrics.
//!
//! The histogram is HDR-style: exact below 128 µs, then log-bucketed with 64
//! sub-buckets per octave (≤ ~1.6% relative error), constant memory, O(1)
//! record. Quantiles and means are computed from bucket midpoints.

use std::collections::BTreeMap;

use storage::OpKind;

const LINEAR_LIMIT: u64 = 128;
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;
/// Linear buckets + 64 sub-buckets for each octave from 2^7 up to 2^63.
const BUCKETS: usize = (LINEAR_LIMIT + (64 - 7) * SUB_BUCKETS) as usize;

/// A log-bucketed latency histogram over `u64` microsecond values.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= 7
        let sub = (v >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
        (LINEAR_LIMIT + (msb as u64 - 7) * SUB_BUCKETS + sub) as usize
    }
}

#[inline]
fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_LIMIT {
        idx
    } else {
        let rel = idx - LINEAR_LIMIT;
        let msb = 7 + rel / SUB_BUCKETS;
        let sub = rel % SUB_BUCKETS;
        (1 << msb) + (sub << (msb - SUB_BITS as u64))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket-representative value.
    ///
    /// Degenerate inputs resolve exactly rather than to a bucket floor:
    /// an empty histogram returns 0, a single-sample histogram returns
    /// its one value, `q <= 0` returns the true minimum and `q >= 1` the
    /// true maximum (both tracked exactly). The general bucketed path is
    /// untouched.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 || q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(i);
            }
        }
        self.max
    }

    /// 95th percentile shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-window latency and error accounting inside a [`Timeline`].
#[derive(Debug, Clone, Default)]
struct WindowStats {
    hist: Option<Histogram>,
    errors: u64,
    retried_ok: u64,
    attempts: u64,
}

/// One materialized timeline window, ready for tables and CSV rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Window start, virtual microseconds from run start.
    pub start_us: u64,
    /// Window end (exclusive).
    pub end_us: u64,
    /// Successful operations completed inside the window.
    pub ops: u64,
    /// Successful-operation rate over the window.
    pub ops_per_sec: f64,
    /// Mean latency of the window's operations (µs; 0 when empty).
    pub mean_us: f64,
    /// 95th-percentile latency (µs; 0 when empty).
    pub p95_us: u64,
    /// 99th-percentile latency (µs; 0 when empty).
    pub p99_us: u64,
    /// Failed operations inside the window.
    pub errors: u64,
    /// Of [`TimelineWindow::ops`], how many needed a retry or a winning
    /// hedge (the rest succeeded on their first attempt).
    pub retried_ops: u64,
    /// Store attempts spent by the operations settling in this window
    /// (successes and errors); `attempts / (ops + errors)` is the window's
    /// attempts-per-op.
    pub attempts: u64,
}

impl TimelineWindow {
    /// Of [`TimelineWindow::ops`], how many succeeded on their first
    /// attempt — the window's *goodput the client got for free*.
    pub fn first_try_ops(&self) -> u64 {
        self.ops - self.retried_ops
    }

    /// Mean store attempts per settled operation (0 when the window is
    /// empty; 1.0 means no retry/hedge traffic at all).
    pub fn attempts_per_op(&self) -> f64 {
        let settled = self.ops + self.errors;
        if settled == 0 {
            0.0
        } else {
            self.attempts as f64 / settled as f64
        }
    }
}

/// Time-bucketed metrics: completions fall into fixed-width windows of
/// virtual time, each keeping its own latency histogram and error count,
/// so degradation and recovery around a fault are observable as a curve
/// rather than one end-of-run aggregate.
///
/// Windows are keyed by `completion_time / window_us`; a completion exactly
/// on a boundary belongs to the *later* window. Gaps (windows where nothing
/// completed — e.g. a total outage) materialize as empty windows in
/// [`Timeline::windows`], which is precisely the dip a failure experiment
/// wants to see.
#[derive(Debug, Clone)]
pub struct Timeline {
    window_us: u64,
    windows: BTreeMap<u64, WindowStats>,
}

impl Timeline {
    /// An empty timeline with the given window width (must be nonzero).
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "timeline window width must be nonzero");
        Self {
            window_us,
            windows: BTreeMap::new(),
        }
    }

    /// Record one successful completion at virtual time `at`: `retried`
    /// marks an operation that needed a retry or winning hedge, `attempts`
    /// counts the store attempts it consumed.
    pub fn record_success(&mut self, at: u64, latency_us: u64, retried: bool, attempts: u32) {
        let w = self.windows.entry(at / self.window_us).or_default();
        w.hist.get_or_insert_with(Histogram::new).record(latency_us);
        if retried {
            w.retried_ok += 1;
        }
        w.attempts += u64::from(attempts);
    }

    /// Record one client-visible failure at virtual time `at` that consumed
    /// `attempts` store attempts.
    pub fn record_failure(&mut self, at: u64, attempts: u32) {
        let w = self.windows.entry(at / self.window_us).or_default();
        w.errors += 1;
        w.attempts += u64::from(attempts);
    }

    /// Materialize every window from the first recorded one through the
    /// last, including interior gaps as zero-op windows.
    pub fn windows(&self) -> Vec<TimelineWindow> {
        let (Some((&first, _)), Some((&last, _))) = (
            self.windows.first_key_value(),
            self.windows.last_key_value(),
        ) else {
            return Vec::new();
        };
        let empty = WindowStats::default();
        (first..=last)
            .map(|idx| {
                let w = self.windows.get(&idx).unwrap_or(&empty);
                let (ops, mean_us, p95_us, p99_us) = match &w.hist {
                    Some(h) => (h.count(), h.mean(), h.p95(), h.p99()),
                    None => (0, 0.0, 0, 0),
                };
                TimelineWindow {
                    start_us: idx * self.window_us,
                    end_us: (idx + 1) * self.window_us,
                    ops,
                    ops_per_sec: ops as f64 * 1_000_000.0 / self.window_us as f64,
                    mean_us,
                    p95_us,
                    p99_us,
                    errors: w.errors,
                    retried_ops: w.retried_ok,
                    attempts: w.attempts,
                }
            })
            .collect()
    }
}

/// Client-resilience accounting for one run, maintained by the driver's
/// retry/hedge layer. All zeros under a no-retry policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Attempts submitted to the store: first tries, retries, hedges, and
    /// read-modify-write write phases.
    pub attempts: u64,
    /// Backed-off re-submissions after a retryable error.
    pub retries: u64,
    /// Hedged (speculative second) read attempts issued.
    pub hedges: u64,
    /// Settled operations whose hedge attempt finished first.
    pub hedge_wins: u64,
    /// Hedge losers: attempt completions drained after their operation had
    /// already settled, counted and dropped.
    pub hedge_cancelled: u64,
    /// Client-visible errors verdicted by the per-op deadline budget.
    pub deadline_exceeded: u64,
    /// Operations that succeeded on their first attempt.
    pub first_try_ok: u64,
    /// Operations that needed a retry or a winning hedge to succeed.
    pub retried_ok: u64,
}

/// Per-tenant accounting for multi-tenant open-loop runs: which tenant's
/// traffic got served, which got shed. Indexed by the arrival mix's tenant
/// position.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Latencies of the tenant's successful ops in the measured window.
    pub hist: Histogram,
    /// Client-visible failures (shed ops included).
    pub errors: u64,
    /// Of those, ops the store's admission controller shed. Budget
    /// consumers, not latency samples.
    pub shed: u64,
}

/// Aggregated metrics for one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    per_op: BTreeMap<OpKind, Histogram>,
    all: Histogram,
    timeline: Option<Timeline>,
    resilience: ResilienceCounters,
    tenants: Vec<TenantStats>,
    started_at: u64,
    finished_at: u64,
    errors: u64,
    stale_reads: u64,
    missing_reads: u64,
    reads_checked: u64,
}

impl RunMetrics {
    /// Empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed operation.
    pub fn record(&mut self, kind: OpKind, latency_us: u64) {
        self.per_op.entry(kind).or_default().record(latency_us);
        self.all.record(latency_us);
    }

    /// Record one failed operation.
    pub fn record_error(&mut self) {
        self.errors += 1;
    }

    /// Record one read-consistency check outcome with the full verdict:
    /// `missing` marks a read that found no value after an acknowledged
    /// write (always also `stale`), so lost writes are countable apart
    /// from stale reads.
    pub fn record_read_check(&mut self, stale: bool, missing: bool) {
        self.reads_checked += 1;
        if stale {
            self.stale_reads += 1;
        }
        if missing {
            self.missing_reads += 1;
        }
    }

    /// Turn on time-bucketed collection with the given window width.
    /// Without this call the timeline hooks below are free no-ops, keeping
    /// aggregate-only runs untouched.
    pub fn enable_timeline(&mut self, window_us: u64) {
        self.timeline = Some(Timeline::new(window_us));
    }

    /// Note one successful completion at virtual time `at` for the
    /// timeline; a no-op unless [`RunMetrics::enable_timeline`] was called.
    /// Separate from [`RunMetrics::record`] because the timeline spans the
    /// whole run (warm-up included) while aggregates cover only the
    /// measured window. `retried` and `attempts` carry the resilience
    /// layer's per-op accounting into the window columns.
    pub fn note_timeline(&mut self, at: u64, latency_us: u64, retried: bool, attempts: u32) {
        if let Some(t) = &mut self.timeline {
            t.record_success(at, latency_us, retried, attempts);
        }
    }

    /// Note one failed completion at virtual time `at` (after `attempts`
    /// store attempts) for the timeline; a no-op unless the timeline is
    /// enabled.
    pub fn note_timeline_error(&mut self, at: u64, attempts: u32) {
        if let Some(t) = &mut self.timeline {
            t.record_failure(at, attempts);
        }
    }

    fn tenant_mut(&mut self, tenant: usize) -> &mut TenantStats {
        if self.tenants.len() <= tenant {
            self.tenants.resize_with(tenant + 1, TenantStats::default);
        }
        &mut self.tenants[tenant]
    }

    /// Record one successful completion for tenant index `tenant`
    /// (multi-tenant open-loop runs; single-tenant runs never call this).
    pub fn record_tenant(&mut self, tenant: usize, latency_us: u64) {
        self.tenant_mut(tenant).hist.record(latency_us);
    }

    /// Record one client-visible failure for tenant index `tenant`;
    /// `shed` marks admission-control rejections.
    pub fn record_tenant_error(&mut self, tenant: usize, shed: bool) {
        let t = self.tenant_mut(tenant);
        t.errors += 1;
        if shed {
            t.shed += 1;
        }
    }

    /// Per-tenant stats, indexed by tenant position in the arrival mix.
    /// Empty unless the tenant hooks above were used.
    pub fn tenants(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// The run's client-resilience counters.
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// Mutable access for the driver's retry/hedge layer.
    pub fn resilience_mut(&mut self) -> &mut ResilienceCounters {
        &mut self.resilience
    }

    /// The timeline, when enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Set the measured interval boundaries (virtual microseconds).
    pub fn set_window(&mut self, start: u64, end: u64) {
        self.started_at = start;
        self.finished_at = end.max(start);
    }

    /// Total successful operations.
    pub fn ops(&self) -> u64 {
        self.all.count()
    }

    /// Failed operations.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Stale reads observed / reads checked.
    pub fn staleness(&self) -> (u64, u64) {
        (self.stale_reads, self.reads_checked)
    }

    /// Checked reads that found no value after an acknowledged write (a
    /// subset of the stale count: lost writes, not lagging replicas).
    pub fn missing_reads(&self) -> u64 {
        self.missing_reads
    }

    /// Runtime throughput over the measured window, ops/second.
    pub fn throughput(&self) -> f64 {
        let window = self.finished_at.saturating_sub(self.started_at);
        if window == 0 {
            0.0
        } else {
            self.ops() as f64 * 1_000_000.0 / window as f64
        }
    }

    /// The all-operations histogram.
    pub fn overall(&self) -> &Histogram {
        &self.all
    }

    /// The histogram for one op kind, if any were recorded.
    pub fn for_op(&self, kind: OpKind) -> Option<&Histogram> {
        self.per_op.get(&kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 99, 127] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 127);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // A lone sample far above the linear bucket range must come back
        // exactly, not as its bucket's floor.
        let mut h = Histogram::new();
        h.record(1_000_003);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1_000_003, "q={q}");
        }
    }

    #[test]
    fn out_of_range_q_pins_to_exact_extremes() {
        let mut h = Histogram::new();
        h.record(130);
        h.record(123_456_789);
        assert_eq!(h.quantile(0.0), 130);
        assert_eq!(h.quantile(-3.0), 130);
        assert_eq!(h.quantile(1.0), 123_456_789);
        assert_eq!(h.quantile(7.0), 123_456_789);
    }

    #[test]
    fn known_distribution_pins_p50_p95_p99() {
        // 1..=100 sits in the exact linear buckets, so percentile ranks
        // map straight to values: rank ceil(q*100).
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 50);
        assert_eq!(h.p95(), 95);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.quantile(0.01), 1);
        // A skewed known distribution: ninety 10s and ten 100s.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.90), 10);
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [130u64, 1_000, 8_192, 1_000_000, 123_456_789] {
            let lo = bucket_low(bucket_index(v));
            assert!(lo <= v, "low bound above value for {v}");
            let rel = (v - lo) as f64 / v as f64;
            assert!(rel < 0.017, "relative error {rel} too large for {v}");
        }
    }

    #[test]
    fn bucket_low_is_monotone() {
        let mut prev = 0;
        for idx in 0..BUCKETS {
            let lo = bucket_low(idx);
            assert!(lo >= prev, "bucket lows must not decrease at {idx}");
            prev = lo;
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i);
        }
        assert!(h.quantile(0.50) <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        // Median of 0..10000 is ~5000, within bucket tolerance.
        let p50 = h.quantile(0.50) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.05, "p50={p50}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert!((h.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn run_metrics_throughput() {
        let mut m = RunMetrics::new();
        for _ in 0..1000 {
            m.record(OpKind::Read, 500);
        }
        m.set_window(0, 1_000_000); // one second
        assert!((m.throughput() - 1000.0).abs() < 1e-9);
        assert_eq!(m.ops(), 1000);
        assert_eq!(m.for_op(OpKind::Read).unwrap().count(), 1000);
        assert!(m.for_op(OpKind::Scan).is_none());
    }

    #[test]
    fn default_run_metrics_report_an_empty_overall_histogram() {
        let m = RunMetrics::default();
        assert_eq!(m.overall().count(), 0);
        assert_eq!(m.overall().quantile(0.99), 0);
        assert_eq!(m.ops(), 0);
    }

    #[test]
    fn run_metrics_track_errors_and_staleness() {
        let mut m = RunMetrics::new();
        m.record_error();
        m.record_read_check(true, false);
        m.record_read_check(false, false);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.staleness(), (1, 2));
        assert_eq!(m.missing_reads(), 0);
    }

    #[test]
    fn missing_reads_count_apart_from_stale() {
        let mut m = RunMetrics::new();
        m.record_read_check(true, false); // lagging replica
        m.record_read_check(true, true); // lost write
        m.record_read_check(false, false); // fresh
        assert_eq!(m.staleness(), (2, 3));
        assert_eq!(m.missing_reads(), 1);
    }

    #[test]
    fn zero_window_throughput_is_zero() {
        let mut m = RunMetrics::new();
        m.record(OpKind::Read, 1);
        m.set_window(5, 5);
        assert_eq!(m.throughput(), 0.0);
    }

    #[test]
    fn timeline_empty_window_gap_materializes_as_zeros() {
        let mut t = Timeline::new(1_000);
        t.record_success(500, 10, false, 1); // window 0
        t.record_success(2_500, 30, false, 1); // window 2; window 1 is a gap
        let w = t.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[1].start_us, 1_000);
        assert_eq!(w[1].ops, 0);
        assert_eq!(w[1].ops_per_sec, 0.0);
        assert_eq!(w[1].mean_us, 0.0);
        assert_eq!(w[1].p95_us, 0);
        assert_eq!(w[1].p99_us, 0);
        assert_eq!(w[1].errors, 0);
    }

    #[test]
    fn timeline_single_op_window_percentiles_equal_the_op() {
        let mut t = Timeline::new(1_000);
        t.record_success(100, 42, false, 1);
        let w = t.windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].ops, 1);
        assert!((w[0].mean_us - 42.0).abs() < 1e-9);
        // One op below the linear bucket limit: every quantile is exact.
        assert_eq!(w[0].p95_us, 42);
        assert_eq!(w[0].p99_us, 42);
        assert!((w[0].ops_per_sec - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_boundary_completion_lands_in_later_window() {
        let mut t = Timeline::new(1_000);
        t.record_success(999, 1, false, 1);
        t.record_success(1_000, 2, false, 1); // exactly on the boundary
        let w = t.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].ops, 1);
        assert_eq!(w[1].ops, 1);
        assert_eq!(w[1].start_us, 1_000);
    }

    #[test]
    fn timeline_errors_bucket_separately_from_ops() {
        let mut t = Timeline::new(100);
        t.record_failure(50, 1);
        t.record_failure(250, 1);
        t.record_success(250, 5, false, 1);
        let w = t.windows();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].ops, w[0].errors), (0, 1));
        assert_eq!((w[2].ops, w[2].errors), (1, 1));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn timeline_rejects_zero_width_windows() {
        let _ = Timeline::new(0);
    }

    #[test]
    fn run_metrics_timeline_hooks_are_noops_until_enabled() {
        let mut m = RunMetrics::new();
        m.note_timeline(100, 5, false, 1);
        m.note_timeline_error(100, 1);
        assert!(m.timeline().is_none());
        m.enable_timeline(1_000);
        m.note_timeline(100, 5, false, 1);
        m.note_timeline_error(2_100, 1);
        let t = m.timeline().expect("enabled");
        let w = t.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].ops, 1);
        assert_eq!(w[2].errors, 1);
        // Timeline recording is independent of the aggregate counters.
        assert_eq!(m.ops(), 0);
        assert_eq!(m.errors(), 0);
    }

    #[test]
    fn timeline_splits_first_try_from_retried_goodput() {
        let mut t = Timeline::new(1_000);
        t.record_success(100, 10, false, 1); // clean first try
        t.record_success(200, 900, true, 3); // needed two extra attempts
        t.record_failure(300, 4); // gave up after four attempts
        let w = t.windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].ops, 2);
        assert_eq!(w[0].retried_ops, 1);
        assert_eq!(w[0].first_try_ops(), 1);
        assert_eq!(w[0].errors, 1);
        assert_eq!(w[0].attempts, 8);
        assert!((w[0].attempts_per_op() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn first_try_completions_count_one_attempt_each() {
        let mut t = Timeline::new(1_000);
        t.record_success(100, 10, false, 1);
        t.record_failure(200, 1);
        let w = t.windows();
        assert_eq!(w[0].retried_ops, 0);
        assert_eq!(w[0].attempts, 2);
        assert!((w[0].attempts_per_op() - 1.0).abs() < 1e-9);
        // An empty window has no attempts-per-op.
        let empty = Timeline::new(10).windows();
        assert!(empty.is_empty());
    }

    #[test]
    fn tenant_stats_grow_on_demand_and_split_shed_from_errors() {
        let mut m = RunMetrics::new();
        assert!(m.tenants().is_empty());
        m.record_tenant(1, 500);
        m.record_tenant_error(0, true);
        m.record_tenant_error(0, false);
        assert_eq!(m.tenants().len(), 2);
        assert_eq!(m.tenants()[0].errors, 2);
        assert_eq!(m.tenants()[0].shed, 1);
        assert_eq!(m.tenants()[0].hist.count(), 0);
        assert_eq!(m.tenants()[1].hist.count(), 1);
        assert_eq!(m.tenants()[1].errors, 0);
    }

    #[test]
    fn resilience_counters_default_to_zero_and_are_driver_writable() {
        let mut m = RunMetrics::new();
        assert_eq!(*m.resilience(), ResilienceCounters::default());
        m.resilience_mut().attempts += 3;
        m.resilience_mut().retries += 1;
        m.resilience_mut().retried_ok += 1;
        assert_eq!(m.resilience().attempts, 3);
        assert_eq!(m.resilience().retries, 1);
    }
}
