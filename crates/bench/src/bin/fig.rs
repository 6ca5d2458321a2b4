//! `fig <name> [--quick]` — regenerate one evaluation artifact.
//!
//! `<name>` is a key of [`bench_core::experiment::FIGURES`] (`table1`,
//! `fig1`…`fig8`, `fig10`, `ablations`). The figure's tables go to stdout,
//! its CSV/JSONL files under `RESULTS_DIR` (default `results/`), timing and
//! sweep telemetry to stderr. `--quick` runs the smoke-scale configuration;
//! `SWEEP_THREADS=n` / `SWEEP_SERIAL=1` set the schedule (never the bytes).

use std::path::PathBuf;
use std::process::ExitCode;

use bench_core::experiment::{Figure, FIGURES};
use bench_core::sweep::{BadSweepThreads, Sweep};

/// Why the command line or environment was rejected (exit code 2).
#[derive(Debug)]
enum UsageError {
    MissingName,
    UnknownFigure(String),
    Threads(BadSweepThreads),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::MissingName => write!(f, "no figure named")?,
            UsageError::UnknownFigure(name) => write!(f, "unknown figure {name:?}")?,
            UsageError::Threads(e) => return write!(f, "{e}"),
        }
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        write!(
            f,
            "\nusage: fig <name> [--quick]; names: {}",
            names.join(", ")
        )
    }
}

/// The figure to run, whether at smoke scale, and on which sweep.
fn parse(args: &[String]) -> Result<(&'static str, Figure, bool, Sweep), UsageError> {
    let mut name = None;
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if name.is_none() => name = Some(arg),
            _ => return Err(UsageError::UnknownFigure(arg.clone())),
        }
    }
    let name = name.ok_or(UsageError::MissingName)?;
    let &(name, figure) = FIGURES
        .iter()
        .find(|(known, _)| known == name)
        .ok_or_else(|| UsageError::UnknownFigure(name.clone()))?;
    let sweep = Sweep::from_env().map_err(UsageError::Threads)?;
    Ok((name, figure, quick, sweep))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, figure, quick, sweep) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fig: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let report = figure(quick, &sweep);
    eprintln!("{name}: done in {:.1}s", started.elapsed().as_secs_f64());
    if let Some(telemetry) = &report.telemetry {
        eprintln!("{name}: {}", telemetry.summary());
    }
    let dir = PathBuf::from(std::env::var_os("RESULTS_DIR").unwrap_or_else(|| "results".into()));
    match report.emit(&dir, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: cannot write under {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}
