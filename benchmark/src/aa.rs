//! `--aa <n>`: the noise self-check. Same code, two sets of runs.
//!
//! Runs the whole untraced benchmark as two interleaved sets (A, B) of `n`
//! process invocations per workload, run `i` of both sets with seed
//! `--seed + i`, and prints for every (workload, end-to-end metric) each
//! set's median and quartiles, IQR/median, and |median A − median B| ÷
//! median A against the metric's bound from `BENCHMARK.json`. The check
//! fails if any of these exceeds **half** the bound, or if the two runs of a
//! pair (same seed) disagree on a deterministic count or the fingerprint. A
//! metric whose spread exceeds the whole bound is marked `unresolved`: two
//! such sets cannot tell a change of the bound's size from noise.
//! Raw (uncalibrated) host throughput is tabulated too, without a bound, so
//! the table shows what calibration buys on the day it is run.

use crate::measure::Options;
use crate::workloads::{Workload, WORKLOADS};

/// The contract this package is measured against, embedded so that the
/// bounds have exactly one home.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// Unbounded notes of the untraced run whose spread is printed too.
const RAW: [&str; 2] = ["raw_sim_ops_per_host_s_fastest", "raw_setup_s_fastest"];

/// Metrics that must repeat exactly at one seed.
const EXACT: [&str; 2] = ["allocs_per_op", "alloc_bytes_per_op"];

/// The text after `"key":` in `json`.
fn after_key<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    Some(json[at..].trim_start())
}

fn number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

fn string(text: &str) -> Option<&str> {
    let rest = text.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let list = after_key(CONTRACT, "end_to_end").unwrap_or_default();
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split('}')
        .filter_map(|object| {
            let name = string(after_key(object, "name")?)?;
            let bound = number(after_key(object, "bound")?)?;
            Some((name.to_owned(), bound))
        })
        .collect()
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method): `(q1, median, q3)`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// One child run of one workload: the values of `names` (end-to-end
/// metrics or notes) and the fingerprint it reports.
fn values(w: &Workload, opts: Options, names: &[String]) -> Option<(Vec<f64>, String)> {
    let (ok, stdout) = crate::child(w, opts, false);
    if !ok {
        return None;
    }
    let values = names
        .iter()
        .map(|name| crate::reported(&stdout, name)?.parse().ok())
        .collect::<Option<Vec<f64>>>()?;
    let print = crate::reported(&stdout, "model_fingerprint")?.to_owned();
    Some((values, print))
}

/// Run the self-check; true when every spread and shift is within half its
/// bound.
pub fn run(n: usize, opts: Options) -> bool {
    let mut bounds = bounds();
    if n < 2 || bounds.is_empty() {
        eprintln!("--aa needs at least 2 runs per set and the bounds of BENCHMARK.json");
        return false;
    }
    // Raw host time, for the record: printed beside the bounded metrics,
    // never gated.
    bounds.extend(RAW.map(|name| (name.to_owned(), f64::INFINITY)));
    let names: Vec<String> = bounds.iter().map(|(name, _)| name.clone()).collect();
    let mut ok = true;
    // samples[workload][set][metric] = values over the n runs.
    let mut samples =
        vec![[vec![Vec::new(); names.len()], vec![Vec::new(); names.len()]]; WORKLOADS.len()];
    for i in 0..n {
        let seed = opts.seed + i as u64;
        for (w, per_set) in WORKLOADS.iter().zip(&mut samples) {
            // Alternate which set goes first.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut pair: [Option<(Vec<f64>, String)>; 2] = [None, None];
            for set in order {
                pair[set] = values(w, Options { seed, ..opts }, &names);
                match &pair[set] {
                    Some((values, _)) => {
                        for (sample, v) in per_set[set].iter_mut().zip(values) {
                            sample.push(*v);
                        }
                    }
                    None => {
                        println!("aa {} seed {seed}: the run failed", w.name);
                        ok = false;
                    }
                }
            }
            if let [Some((a, print_a)), Some((b, print_b))] = &pair {
                let exact = names
                    .iter()
                    .zip(a.iter().zip(b))
                    .all(|(name, (x, y))| !EXACT.contains(&name.as_str()) || x == y);
                if !exact || print_a != print_b {
                    println!(
                        "aa {} seed {seed}: counts or fingerprint differ between two runs",
                        w.name
                    );
                    ok = false;
                }
            }
        }
        eprintln!("aa: pair {} of {n} done", i + 1);
    }

    println!(
        "| workload | metric | median A | q1 A | q3 A | IQR/med A | median B | q1 B | q3 B | IQR/med B | shift | bound | ok |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for (w, per_set) in WORKLOADS.iter().zip(&samples) {
        for (m, (name, bound)) in bounds.iter().enumerate() {
            if per_set.iter().any(|set| set[m].len() < 2) {
                continue;
            }
            let (q1a, meda, q3a) = quartiles(&per_set[0][m]);
            let (q1b, medb, q3b) = quartiles(&per_set[1][m]);
            let spread_a = (q3a - q1a) / meda;
            let spread_b = (q3b - q1b) / medb;
            let shift = (meda - medb).abs() / meda;
            let spread = spread_a.max(spread_b);
            let verdict = if spread.max(shift) <= bound / 2.0 {
                "yes"
            } else if spread > *bound {
                "unresolved"
            } else {
                "NO"
            };
            ok &= verdict == "yes";
            println!(
                "| {} | {name} | {meda:.6} | {q1a:.6} | {q3a:.6} | {spread_a:.4} | {medb:.6} | {q1b:.6} | {q3b:.6} | {spread_b:.4} | {shift:.4} | {} | {} |",
                w.name,
                if bound.is_finite() { bound.to_string() } else { "-".into() },
                verdict,
            );
        }
    }
    ok
}
