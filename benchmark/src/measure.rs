//! The untraced run: the end-to-end metrics.
//!
//! Shape of one run — the noise fix; do not change it without re-running
//! `--aa`. Set-up (`setup::build_*` + `driver::load`) runs [`SETUP_REPS`]
//! times, the previous base dropped first. Then [`REPS`] repetitions of
//! `base.snapshot()` + `driver::run` on the snapshot, all with the same
//! seed, so every repetition does bit-identical work: repetition 0 is a
//! discarded warm pass that also supplies the deterministic counts, the
//! others are timed. One pass of the reference kernel follows every set-up
//! pass and every timed repetition, and a host time is reported as the
//! fastest quarter of the samples × nominal reference pass ÷ the fastest
//! quarter of the reference passes: see [`crate::reference`] for why raw
//! host time cannot be bounded here. How many of each is a constant,
//! identical on the two commits of a comparison.

use std::time::Instant;

use bench_core::driver::{self, DriverConfig, RunOutcome};
use bench_core::store::SimStore;
use faults::FaultTarget;
use storage::cache::CacheStats;
use storage::LsmConfig;

use crate::alloc::Counts;
use crate::reference::Reference;
use crate::workloads::{Size, Workload};

/// Set-up passes per run.
pub const SETUP_REPS: usize = 4;
/// Repetitions of a full-size run, the warm one included.
pub const REPS: u32 = 20;
/// Consecutive seeds, from `--seed` up, the allocation counts are the
/// median over: exact at one seed, they come in lumps across seeds, and two
/// runs that are compared need not have the same seed.
pub const COUNT_SEEDS: u64 = 3;

/// What the benchmark needs from a store beyond driving it.
pub trait Target: SimStore + FaultTarget<Event = <Self as SimStore>::Event> + Sized {
    /// Block-cache counters summed over every node's LSM tree.
    fn cache_stats(&self) -> CacheStats;
    /// The per-node LSM configuration the store was built with.
    fn lsm_config(&self) -> LsmConfig;
}

fn sum_cache_stats(parts: impl Iterator<Item = CacheStats>) -> CacheStats {
    parts.fold(CacheStats::default(), |a, b| CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
    })
}

impl Target for cstore::Cluster {
    fn cache_stats(&self) -> CacheStats {
        sum_cache_stats(
            (0..self.len()).map(|i| self.node(simkit::NodeId(i as u32)).lsm.cache_stats()),
        )
    }

    fn lsm_config(&self) -> LsmConfig {
        self.config().lsm
    }
}

impl Target for hstore::Cluster {
    fn cache_stats(&self) -> CacheStats {
        sum_cache_stats(self.regions().iter().map(|r| r.lsm.cache_stats()))
    }

    fn lsm_config(&self) -> LsmConfig {
        self.config().lsm
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// How one run is sized and seeded.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Full benchmark or smoke.
    pub size: Size,
    /// Workload seed.
    pub seed: u64,
}

impl Options {
    /// Repetitions, the warm one included.
    pub fn reps(&self) -> u32 {
        match self.size {
            Size::Full => REPS,
            Size::Smoke => 2,
        }
    }
}

/// The result of one run (traced or not) of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated ops issued over all repetitions.
    pub ops_attempted: u64,
    /// Of those, ops that settled as an error or never settled — or all of
    /// them when a correctness check failed.
    pub ops_failed: u64,
    /// Repetitions run, the warm one included.
    pub reps: u32,
    /// Hash of the simulated results, identical across repetitions.
    pub model_fingerprint: u64,
    /// Failed correctness checks; empty when the outputs are correct.
    pub wrong: Vec<String>,
    /// The metrics of this kind of run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Numbers printed for the reader only: not in `BENCHMARK.json`, not in
    /// the result object.
    pub notes: Vec<Metric>,
}

/// FNV-1a over the simulated results that must not move under a pure
/// performance change: ops, errors, events dispatched, virtual duration,
/// the bits of the mean latency, and every store counter.
pub fn fingerprint(out: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in [
        out.metrics.ops(),
        out.errors,
        out.events_dispatched,
        out.sim_duration_us,
        out.mean_latency_us.to_bits(),
    ] {
        eat(&v.to_le_bytes());
    }
    for (label, v) in &out.counters {
        eat(label.as_bytes());
        eat(&v.to_le_bytes());
    }
    h
}

/// Simulated ops of one repetition that did not succeed.
pub fn failed_ops(cfg: &DriverConfig, out: &RunOutcome) -> u64 {
    let res = out.metrics.resilience();
    (cfg.warmup_ops + cfg.measure_ops).saturating_sub(res.first_try_ok + res.retried_ok)
}

/// A `VmHWM:` / `VmRSS:` style line of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Mean of the fastest quarter of `secs`. Interference only ever adds host
/// time, so the fast end is the clean one; a quarter of it, not the single
/// fastest, so that one lucky sample does not set the result.
fn fastest_quarter(secs: &[f64]) -> f64 {
    let mut sorted = secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = &sorted[..sorted.len().div_ceil(4)];
    quarter.iter().sum::<f64>() / quarter.len() as f64
}

/// Build and load a base store, timed.
pub fn set_up<S: Target>(cfg: &DriverConfig, build: &impl Fn() -> S) -> (S, f64) {
    let start = Instant::now();
    let mut base = build();
    driver::load(&mut base, cfg.records, cfg.value_len, cfg.seed);
    (base, start.elapsed().as_secs_f64())
}

/// One repetition: snapshot the base and run the workload on the snapshot.
/// Returns the outcome and the host seconds of snapshot + run.
pub fn repetition<S: Target>(base: &S, cfg: &DriverConfig) -> (RunOutcome, f64) {
    let start = Instant::now();
    let mut store = base.snapshot();
    let out = driver::run(&mut store, cfg);
    let secs = start.elapsed().as_secs_f64();
    (out, secs)
}

/// Host seconds at the box's nominal speed: the fastest quarter of `secs`
/// with the slowdown the reference kernel saw at the same time (its passes
/// took `pass_s`) divided out.
fn calibrated(secs: &[f64], pass_s: &[f64], reference: &Reference) -> f64 {
    fastest_quarter(secs) * reference.nominal_pass_s() / fastest_quarter(pass_s)
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Run one workload untraced and report the end-to-end metrics, plus notes
/// that are informative only.
pub fn untraced<S: Target>(w: &Workload, opts: Options, build: impl Fn() -> S) -> Report {
    let cfg = w.driver_config(opts.size, opts.seed);
    let ops = cfg.warmup_ops + cfg.measure_ops;

    // The reference state is the benchmark's own, not the program's: its
    // resident size comes off the peak. Nothing else has run in this
    // process yet, so the step is all new pages.
    let rss_before = status_mb("VmRSS:");
    let mut reference = Reference::new(opts.size);
    let reference_mb = status_mb("VmRSS:") - rss_before;

    let mut setup_s = Vec::new();
    let mut setup_pass_s = Vec::new();
    let mut base = None;
    for _ in 0..SETUP_REPS {
        drop(base.take());
        let (store, secs) = set_up(&cfg, &build);
        setup_s.push(secs);
        setup_pass_s.push(reference.pass());
        base = Some(store);
    }
    let base = base.expect("SETUP_REPS is at least one");

    // Repetition 0, then the same pass at the next seeds, for the counts.
    // What a run allocates is exact at one seed but comes in lumps across
    // seeds (the calendar queue re-buckets, or not: 6% fewer bytes on
    // `cstore-crash-recorded` at one seed in nine); the median of three
    // seeds is still an exact count, and almost always the common one.
    let mut wrong = Vec::new();
    let mut failed = 0;
    let mut counted = Vec::new();
    let mut print = 0;
    for near in 0..COUNT_SEEDS {
        let cfg = DriverConfig {
            seed: cfg.seed + near,
            ..cfg.clone()
        };
        let before = Counts::now();
        let (out, _) = repetition(&base, &cfg);
        counted.push(Counts::now().since(before));
        wrong.extend(w.check(opts.size, &cfg, &out));
        failed += failed_ops(&cfg, &out);
        if near == 0 {
            print = fingerprint(&out);
        }
    }
    let middle = |of: fn(&Counts) -> u64| {
        let mut values: Vec<u64> = counted.iter().map(of).collect();
        values.sort_unstable();
        values[values.len() / 2] as f64
    };

    let mut rep_s = Vec::new();
    let mut pass_s = Vec::new();
    for rep in 1..opts.reps() {
        let before = Counts::now();
        let (out, secs) = repetition(&base, &cfg);
        let again = Counts::now().since(before);
        rep_s.push(secs);
        if fingerprint(&out) != print {
            wrong.push(format!("repetition {rep} has another model fingerprint"));
        }
        if rep == 1 && again != counted[0] {
            wrong.push(format!(
                "allocation counts differ between repetitions: {:?} then {again:?}",
                counted[0]
            ));
        }
        failed += failed_ops(&cfg, &out);
        drop(out);
        pass_s.push(reference.pass());
    }

    let attempted = ops * (u64::from(opts.reps()) + COUNT_SEEDS - 1);
    Report {
        ops_attempted: attempted,
        ops_failed: if wrong.is_empty() { failed } else { attempted },
        reps: opts.reps(),
        model_fingerprint: print,
        wrong,
        metrics: vec![
            Metric::new(
                "sim_ops_per_calibrated_s",
                ops as f64 / calibrated(&rep_s, &pass_s, &reference),
                "1/s",
            ),
            Metric::new("allocs_per_op", middle(|c| c.calls) / ops as f64, "1"),
            Metric::new("alloc_bytes_per_op", middle(|c| c.bytes) / ops as f64, "B"),
            Metric::new("peak_rss_mb", status_mb("VmHWM:") - reference_mb, "MB"),
            Metric::new(
                "setup_s",
                calibrated(&setup_s, &setup_pass_s, &reference),
                "s",
            ),
        ],
        notes: vec![
            Metric::new(
                "raw_sim_ops_per_host_s_fastest",
                ops as f64 / fastest(&rep_s),
                "1/s",
            ),
            Metric::new("raw_setup_s_fastest", fastest(&setup_s), "s"),
            Metric::new("reference_pass_s_fastest", fastest(&pass_s), "s"),
            Metric::new("reference_state_mb", reference_mb, "MB"),
        ],
    }
}
