//! `fig <name> [--quick]` — regenerate one evaluation artifact.
//!
//! `<name>` is a key of [`bench_core::FIGURES`] (`table1`,
//! `fig1`…`fig8`, `fig10`, `ablations`). The figure's tables go to stdout,
//! its CSV/JSONL files under `RESULTS_DIR` (default `results/`), timing and
//! sweep telemetry to stderr. `--quick` runs the smoke-scale configuration;
//! `SWEEP_THREADS=n` sets the worker count (never the bytes).

use std::path::PathBuf;
use std::process::ExitCode;

use bench_core::{BadSweepThreads, Figure, Sweep, FIGURES};

/// Why the command line or environment was rejected (exit code 2).
#[derive(Debug)]
enum UsageError {
    MissingName,
    UnknownFigure(String),
    /// A flag other than `--quick`, or a second figure name.
    UnexpectedArg(String),
    Threads(BadSweepThreads),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::MissingName => write!(f, "no figure named")?,
            UsageError::UnknownFigure(name) => write!(f, "unknown figure {name:?}")?,
            UsageError::UnexpectedArg(arg) => write!(f, "unexpected argument {arg:?}")?,
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
            a if a.starts_with('-') || name.is_some() => {
                return Err(UsageError::UnexpectedArg(arg.clone()))
            }
            _ => name = Some(arg),
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

/// The peak resident set size in MB that a `/proc/<pid>/status` text
/// gives on its `VmHWM` line; `None` without one.
fn peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
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
    let secs = started.elapsed().as_secs_f64();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    match peak_rss_mb(&status) {
        Some(mb) => eprintln!("{name}: done in {secs:.1}s, peak RSS {mb:.0} MB"),
        None => eprintln!("{name}: done in {secs:.1}s"),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_from_the_high_water_mark_line() {
        let status = "Name:\tfig\nVmPeak:\t  900000 kB\nVmHWM:\t  443392 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(peak_rss_mb(status), Some(433.0));
        assert_eq!(peak_rss_mb("Name:\tfig\n"), None);
        assert_eq!(peak_rss_mb(""), None);
    }

    fn parse_args(args: &[&str]) -> Result<(&'static str, bool), UsageError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(name, _, quick, _)| (name, quick))
    }

    fn unexpected(args: &[&str]) -> Option<String> {
        match parse_args(args) {
            Err(UsageError::UnexpectedArg(arg)) => Some(arg),
            _ => None,
        }
    }

    #[test]
    fn the_flag_may_come_before_or_after_the_name() {
        assert!(matches!(
            parse_args(&["--quick", "fig1"]),
            Ok(("fig1", true))
        ));
        assert!(matches!(
            parse_args(&["fig1", "--quick"]),
            Ok(("fig1", true))
        ));
        assert!(matches!(parse_args(&["fig1"]), Ok(("fig1", false))));
    }

    #[test]
    fn a_misspelt_flag_is_blamed_in_either_order() {
        assert_eq!(unexpected(&["--quik", "fig1"]).as_deref(), Some("--quik"));
        assert_eq!(unexpected(&["fig1", "--quik"]).as_deref(), Some("--quik"));
        let message = parse_args(&["--quik", "fig1"]).err().map(|e| e.to_string());
        assert!(message.is_some_and(|m| m.starts_with("unexpected argument \"--quik\"")));
    }

    #[test]
    fn a_second_name_is_unexpected() {
        assert_eq!(unexpected(&["fig1", "fig2"]).as_deref(), Some("fig2"));
    }

    #[test]
    fn a_missing_or_unknown_name_is_reported() {
        assert!(matches!(parse_args(&[]), Err(UsageError::MissingName)));
        assert!(matches!(
            parse_args(&["--quick"]),
            Err(UsageError::MissingName)
        ));
        assert!(
            matches!(parse_args(&["fig9"]), Err(UsageError::UnknownFigure(name)) if name == "fig9")
        );
    }
}
