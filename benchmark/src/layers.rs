//! The traced run: the per-layer metrics.
//!
//! The base store is wrapped in a [`TimedStore`] from before `driver::load`,
//! so the set-up stages and every call across the driver/store boundary are
//! timed from the benchmark's own files. Repetitions alternate bare
//! (unwrapped) and traced (wrapped) runs of the same configuration; the
//! layer table comes from the fastest traced repetition, whose four parts
//! sum to its host time by construction, and `trace.overhead_frac` compares
//! it with the fastest bare one. End-to-end metrics never come from here.

use std::time::Instant;

use bench_core::driver::{self, DriverConfig, RunOutcome};
use bench_core::store::SimStore;
use storage::cache::CacheStats;

use crate::kernels;
use crate::measure::{failed_ops, fingerprint, repetition, Metric, Options, Report, Target};
use crate::timed_store::{Spans, TimedStore};
use crate::workloads::{Size, Workload};

/// (Bare, traced) repetition pairs of a full-size traced run.
const PAIRS: u32 = 4;

/// The fastest traced repetition so far.
struct Traced {
    host_ns: f64,
    spans: Spans,
    cache: CacheStats,
    out: RunOutcome,
}

fn counter(counters: &[(&'static str, u64)], label: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| *k == label)
        .map_or(0, |(_, v)| *v)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run one workload traced and report the per-layer metrics.
pub fn traced<S: Target>(w: &Workload, opts: Options, build: impl Fn() -> S) -> Report {
    let cfg = w.driver_config(opts.size, opts.seed);
    let ops = cfg.warmup_ops + cfg.measure_ops;

    // Set-up, stage by stage.
    let start = Instant::now();
    let store = build();
    let build_s = start.elapsed().as_secs_f64();
    let mut base = TimedStore::new(store);
    let start = Instant::now();
    driver::load(&mut base, cfg.records, cfg.value_len, cfg.seed);
    let load_and_after_s = start.elapsed().as_secs_f64();
    let flush_warm_s = (base.spans().flush.total + base.spans().warm.total).as_secs_f64();
    let base_counters = base.counters();
    let base_cache = base.inner().cache_stats();

    // The same run with the recorders off, for the workload that has them on.
    let plain_cfg = w.recorded().then(|| DriverConfig {
        trace: obs::TraceConfig::off(),
        audit: audit::AuditConfig::off(),
        ..cfg.clone()
    });

    let pairs = match opts.size {
        Size::Full => PAIRS,
        Size::Smoke => 1,
    };
    let mut wrong = Vec::new();
    let mut bare_s = f64::INFINITY;
    let mut plain_s = f64::INFINITY;
    let mut snapshot_us = f64::INFINITY;
    let mut best: Option<Traced> = None;
    let mut print = None;
    for pair in 0..pairs {
        let (out, secs) = repetition(base.inner(), &cfg);
        bare_s = bare_s.min(secs);
        let bare_print = fingerprint(&out);
        if pair == 0 {
            wrong = w.check(opts.size, &cfg, &out);
        }
        drop(out);

        let start = Instant::now();
        let mut store = base.snapshot();
        snapshot_us = snapshot_us.min(start.elapsed().as_secs_f64() * 1e6);
        let out = driver::run(&mut store, &cfg);
        let host_ns = start.elapsed().as_nanos() as f64;
        let traced_print = fingerprint(&out);
        if traced_print != bare_print || *print.get_or_insert(bare_print) != bare_print {
            wrong.push(format!("pair {pair} has another model fingerprint"));
        }
        if best.as_ref().is_none_or(|b| host_ns < b.host_ns) {
            best = Some(Traced {
                host_ns,
                spans: *store.spans(),
                cache: store.inner().cache_stats(),
                out,
            });
        }

        if let Some(plain) = &plain_cfg {
            let (out, secs) = repetition(base.inner(), plain);
            plain_s = plain_s.min(secs);
            // Recording is pure bookkeeping: the model must not notice it.
            if fingerprint(&out) != bare_print {
                wrong.push("the recorders changed the model fingerprint".into());
            }
        }
    }
    let best = best.expect("at least one pair ran");
    let (spans, out) = (&best.spans, &best.out);
    if spans.scans_done > 0 && spans.scan_rows == 0 {
        wrong.push("scans completed but returned no rows".into());
    }

    let per_op = |ns: f64| ns / ops as f64;
    let in_store = spans.submit.ns() + spans.handle.ns() + spans.drain.ns();
    let bare_ns_per_op = per_op(bare_s * 1e9);
    let since_load = |label: &str| counter(&out.counters, label) - counter(&base_counters, label);
    let per_kop = |label: &str| since_load(label) as f64 * 1e3 / ops as f64;
    let cache = CacheStats {
        hits: best.cache.hits - base_cache.hits,
        misses: best.cache.misses - base_cache.misses,
        evictions: best.cache.evictions - base_cache.evictions,
    };
    let res = out.metrics.resilience();

    let mut metrics = vec![
        Metric::new("trace.ns_per_op", per_op(best.host_ns), "ns"),
        Metric::new("trace.bare_ns_per_op", bare_ns_per_op, "ns"),
        Metric::new(
            "trace.overhead_frac",
            per_op(best.host_ns) / bare_ns_per_op - 1.0,
            "1",
        ),
        Metric::new(
            "driver.self_ns_per_op",
            per_op(best.host_ns - in_store),
            "ns",
        ),
        Metric::new("store.submit_ns_per_op", per_op(spans.submit.ns()), "ns"),
        Metric::new("store.handle_ns_per_op", per_op(spans.handle.ns()), "ns"),
        Metric::new("store.drain_ns_per_op", per_op(spans.drain.ns()), "ns"),
        Metric::new(
            "store.submit_calls_per_op",
            ratio(spans.submit.calls, ops),
            "1",
        ),
        Metric::new(
            "store.handle_calls_per_op",
            ratio(spans.handle.calls, ops),
            "1",
        ),
        Metric::new(
            "simkit.events_per_op",
            ratio(out.events_dispatched, ops),
            "1",
        ),
        Metric::new("storage.cache_hit_rate", cache.hit_rate(), "1"),
        Metric::new(
            "storage.cache_evictions_per_op",
            ratio(cache.evictions, ops),
            "1",
        ),
        Metric::new("store.flushes_per_kop", per_kop("flushes"), "1"),
        Metric::new("store.compactions_per_kop", per_kop("compactions"), "1"),
        Metric::new("store.gc_pauses_per_kop", per_kop("gc_pauses"), "1"),
        Metric::new(
            "cstore.repair_fanouts_per_kop",
            per_kop("repair_fanouts"),
            "1",
        ),
        Metric::new(
            "cstore.hints_replayed",
            since_load("hints_replayed") as f64,
            "count",
        ),
        Metric::new(
            "hstore.wal_entries_per_group",
            ratio(since_load("wal_entries"), since_load("wal_groups")),
            "1",
        ),
        Metric::new(
            "recorders.overhead_ns_per_op",
            if plain_cfg.is_some() {
                bare_ns_per_op - per_op(plain_s * 1e9)
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new(
            "obs.spans_per_op",
            ratio(out.trace.as_ref().map_or(0, |t| t.span_count() as u64), ops),
            "1",
        ),
        Metric::new(
            "audit.records_per_op",
            ratio(out.audit.as_ref().map_or(0, |h| h.len() as u64), ops),
            "1",
        ),
        Metric::new("driver.attempts_per_op", ratio(res.attempts, ops), "1"),
        Metric::new("faults.injected", out.faults_injected as f64, "count"),
        Metric::new("sweep.snapshot_us", snapshot_us, "us"),
        Metric::new("setup.build_s", build_s, "s"),
        Metric::new("setup.load_s", load_and_after_s - flush_warm_s, "s"),
        Metric::new("setup.flush_warm_s", flush_warm_s, "s"),
    ];
    metrics.extend(kernels::run(&cfg, base.inner().lsm_config(), opts.size));

    // Each pair ran the workload twice, or three times with a plain run.
    let runs = u64::from(pairs) * if plain_cfg.is_some() { 3 } else { 2 };
    let attempted = ops * runs;
    Report {
        ops_attempted: attempted,
        ops_failed: if wrong.is_empty() {
            failed_ops(&cfg, out) * runs
        } else {
            attempted
        },
        reps: pairs,
        model_fingerprint: print.expect("at least one pair ran"),
        wrong,
        metrics,
        notes: Vec::new(),
    }
}
