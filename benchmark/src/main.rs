//! The repo's benchmark: one command that prints every metric by name with
//! its unit, checks the simulated outputs, and exits non-zero when a check
//! fails. `benchmark/README.md` has the metric, workload and interaction
//! tables and the rationale; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.
//!
//! ```text
//! layered-benchmark --workload <name> [--seed N] [--trace [0|1]]
//! layered-benchmark --all             [--seed N] [--trace [0|1]]
//! layered-benchmark --aa [n]          [--seed N]
//! ```
//!
//! `--smoke` shrinks every workload to `Scale::tiny` and two repetitions
//! (what `tests/smoke.rs` drives). With `--workload`, the last line of
//! standard output is the result object the benchmark driver reads. A
//! process measures one workload (`peak_rss_mb` is the process's high-water
//! mark), so `--all` and `--aa` start one child process per workload.

mod aa;
mod alloc;
mod kernels;
mod layers;
mod measure;
mod reference;
mod timed_store;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use bench_core::setup::{build_cstore, build_hstore};
use measure::{Options, Report};
use workloads::{Size, Store, Workload, RF, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

enum Mode {
    One(&'static Workload),
    All,
    Aa(usize),
}

struct Args {
    mode: Mode,
    opts: Options,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut opts = Options {
        size: Size::Full,
        seed: 42,
    };
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("no workload {name:?}; there are {names:?}")
                })?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--aa" => {
                let n = match it.peek().and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 10,
                };
                mode = Some(Mode::Aa(n));
            }
            "--seed" => {
                opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            // The benchmark driver passes `--seconds <run_seconds>`. How long
            // a run measures is fixed by the constants in `measure`, so that
            // both commits of a comparison do the same work; `run_seconds`
            // in `BENCHMARK.json` is what they come to on this box.
            "--seconds" => {
                value("a number of seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.size = Size::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or("give --workload <name>, --all or --aa [n]")?;
    Ok(Args { mode, opts, trace })
}

fn run(w: &Workload, opts: Options, trace: bool) -> Report {
    let scale = w.scale(opts.size);
    match (w.store, trace) {
        (Store::CStore(read, write), false) => {
            measure::untraced(w, opts, || build_cstore(&scale, RF, read, write))
        }
        (Store::CStore(read, write), true) => {
            layers::traced(w, opts, || build_cstore(&scale, RF, read, write))
        }
        (Store::HStore, false) => measure::untraced(w, opts, || build_hstore(&scale, RF)),
        (Store::HStore, true) => layers::traced(w, opts, || build_hstore(&scale, RF)),
    }
}

/// Print one workload's report as text lines and return it with any
/// non-finite metric turned into a failed check.
fn report(w: &Workload, opts: Options, trace: bool) -> Report {
    let mut r = run(w, opts, trace);
    for m in &mut r.metrics {
        if !m.value.is_finite() {
            r.wrong.push(format!("{} is not a finite number", m.name));
            r.ops_failed = r.ops_attempted;
            m.value = 0.0;
        }
    }
    let name = w.name;
    let kind = if trace { "traced" } else { "untraced" };
    println!("workload {name} seed {} {kind}", opts.seed);
    for m in &r.metrics {
        println!("metric {name} {} {} {}", m.name, m.value, m.unit);
    }
    for m in &r.notes {
        println!("note {name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("info {name} ops_attempted {}", r.ops_attempted);
    println!("info {name} ops_failed {}", r.ops_failed);
    println!("info {name} reps {}", r.reps);
    println!("info {name} model_fingerprint {:016x}", r.model_fingerprint);
    for what in &r.wrong {
        println!("wrong {name} {what}");
    }
    r
}

/// One workload in a process of its own. Returns whether it succeeded, and
/// its standard output.
fn child(w: &Workload, opts: Options, trace: bool) -> (bool, String) {
    let run = std::env::current_exe().and_then(|exe| {
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if opts.size == Size::Smoke {
            cmd.arg("--smoke");
        }
        cmd.stderr(Stdio::inherit()).output()
    });
    match run {
        Ok(out) => (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        ),
        Err(e) => {
            eprintln!("layered-benchmark: cannot run {}: {e}", w.name);
            (false, String::new())
        }
    }
}

/// The value on the `metric|note|info <workload> <name> <value> …` line of
/// a report.
fn reported<'o>(stdout: &'o str, name: &str) -> Option<&'o str> {
    stdout.lines().find_map(|l| {
        let f: Vec<&str> = l.split(' ').collect();
        (f.len() >= 4 && matches!(f[0], "metric" | "note" | "info") && f[2] == name).then(|| f[3])
    })
}

/// The result object of one run, as the benchmark driver reads it.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.wrong.is_empty(),
        r.ops_attempted,
        r.ops_failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("layered-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.mode {
        Mode::One(w) => {
            let r = report(w, args.opts, args.trace);
            println!("{}", result_json(&r));
            r.wrong.is_empty()
        }
        Mode::All => {
            let mut correct = true;
            let mut totals = [0u64; 2];
            for w in &WORKLOADS {
                let (ok, stdout) = child(w, args.opts, args.trace);
                print!("{stdout}");
                correct &= ok;
                for (total, name) in totals.iter_mut().zip(["ops_attempted", "ops_failed"]) {
                    *total += reported(&stdout, name)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
            // This benchmark measures; it claims no gain.
            println!(
                "{{\"correct\": {correct}, \"workloads\": {}, \"attempted\": {}, \"failed\": {}, \"claim\": null}}",
                WORKLOADS.len(),
                totals[0],
                totals[1],
            );
            correct
        }
        Mode::Aa(n) => aa::run(n, args.opts),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
