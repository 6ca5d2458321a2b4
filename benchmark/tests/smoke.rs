//! `--smoke`: every workload, untraced and traced, at `Scale::tiny` with two
//! repetitions — the harness end to end in seconds, checked against
//! `BENCHMARK.json`.

use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_layered-benchmark");
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every object in the array `"section": [...]`, or just
/// the names when the objects have no unit.
fn section(section: &str) -> Vec<(String, String)> {
    let field = |object: &str, key: &str| {
        let at = object.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = object[at..].trim_start().strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_owned())
    };
    let start = CONTRACT
        .find(&format!("\"{section}\":"))
        .expect("section present");
    let list = &CONTRACT[start..];
    let list = &list[..list.find(']').expect("array closes")];
    list.split('}')
        .filter_map(|object| {
            Some((
                field(object, "name")?,
                field(object, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

/// Run the benchmark binary and return its standard output; it must succeed.
fn bench(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `metric <workload> <name> <value> <unit>` lines of one workload.
fn metric_lines<'o>(output: &'o str, workload: &str) -> Vec<Vec<&'o str>> {
    output
        .lines()
        .map(|l| l.split(' ').collect::<Vec<_>>())
        .filter(|f| f.len() == 5 && f[0] == "metric" && f[1] == workload)
        .collect()
}

fn fingerprints(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter_map(|l| l.split_once(" model_fingerprint ").map(|(_, print)| print))
        .collect()
}

fn assert_prints_exactly(
    output: &str,
    workloads: &[(String, String)],
    metrics: &[(String, String)],
) {
    for (workload, _) in workloads {
        let lines = metric_lines(output, workload);
        assert_eq!(lines.len(), metrics.len(), "{workload}: {lines:?}");
        for (name, unit) in metrics {
            let hits: Vec<_> = lines.iter().filter(|f| f[2] == name).collect();
            assert_eq!(hits.len(), 1, "{workload} prints {name} exactly once");
            assert_eq!(hits[0][4], unit, "{workload} {name} unit");
            let value: f64 = hits[0][3].parse().expect("a number");
            assert!(value.is_finite(), "{workload} {name} = {value}");
        }
    }
}

#[test]
fn smoke_prints_the_contract_and_is_deterministic() {
    let started = Instant::now();
    let workloads = section("workloads");
    let end_to_end = section("end_to_end");
    let per_layer = section("per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .map(|(name, _)| name)
        .collect();
    for name in &names {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        assert!(
            !name.is_empty() && name.len() <= 64 && name.chars().all(legal),
            "{name}"
        );
    }
    names.sort();
    names.dedup();
    assert_eq!(
        names.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "every name is used once"
    );
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let untraced = bench(&["--smoke", "--all", "--seed", "1", "--trace", "0"]);
    let traced = bench(&["--smoke", "--all", "--seed", "1", "--trace", "1"]);
    let reseeded = bench(&["--smoke", "--all", "--seed", "2"]);
    assert_prints_exactly(&untraced, &workloads, &end_to_end);
    assert_prints_exactly(&traced, &workloads, &per_layer);
    assert!(untraced
        .lines()
        .last()
        .is_some_and(|l| l.ends_with("\"claim\": null}")));

    // Same seed, same model — with or without the TimedStore around it;
    // another seed, another model.
    let prints = fingerprints(&untraced);
    assert_eq!(prints.len(), workloads.len());
    assert_eq!(prints, fingerprints(&traced));
    for (a, b) in prints.iter().zip(fingerprints(&reseeded)) {
        assert_ne!(*a, b);
    }

    // The driver's invocation: `--seconds` is accepted, and the last line is
    // the result object.
    let (first, _) = &workloads[0];
    for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
        let out = bench(&[
            "--smoke",
            "--workload",
            first,
            "--seed",
            "1",
            "--seconds",
            "10",
            "--trace",
            trace,
        ]);
        let last = out.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        for (name, unit) in metrics.iter() {
            assert_eq!(
                last.matches(&format!("\"{name}\": {{\"value\": ")).count(),
                1
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"}}")));
        }
    }

    // `peak_rss_mb` is a process-wide high-water mark: under `--all` every
    // workload must still report its own, as it does when run alone.
    let peak = |output: &str, workload: &str| -> f64 {
        let lines = metric_lines(output, workload);
        let line = lines.iter().find(|f| f[2] == "peak_rss_mb");
        line.expect("peak_rss_mb printed")[3]
            .parse()
            .expect("a number")
    };
    for (workload, _) in &workloads {
        let alone = bench(&["--smoke", "--workload", workload, "--seed", "1"]);
        let (together, alone) = (peak(&untraced, workload), peak(&alone, workload));
        assert!(
            (together - alone).abs() < 0.1 * alone,
            "{workload}: peak_rss_mb {together} under --all, {alone} alone"
        );
    }

    assert!(
        started.elapsed().as_secs() < 10,
        "smoke took {:?}",
        started.elapsed()
    );
}
