//! `fig [<name>] [--quick]` — regenerate the evaluation artifacts.
//!
//! With no name, `fig` runs every entry of [`bench_core::FIGURES`] in
//! registry order, in one process; at full scale that run writes all of
//! `results/`. A `<name>` (`table1`, `fig1`…`fig8`, `fig10`, `ablations`)
//! runs that figure alone. Each figure's tables go to stdout, its
//! CSV/JSONL files under `RESULTS_DIR` (default `results/`), its timing,
//! peak RSS and sweep telemetry to stderr. `--quick` runs the smoke-scale
//! configurations; `SWEEP_THREADS=n` sets the worker count (never the
//! bytes).

use std::path::PathBuf;
use std::process::ExitCode;

use bench_core::{BadSweepThreads, Figure, Sweep, FIGURES};

/// Why the command line or environment was rejected (exit code 2).
#[derive(Debug)]
enum UsageError {
    UnknownFigure(String),
    /// A flag other than `--quick`, or a second figure name.
    UnexpectedArg(String),
    Threads(BadSweepThreads),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::UnknownFigure(name) => write!(f, "unknown figure {name:?}")?,
            UsageError::UnexpectedArg(arg) => write!(f, "unexpected argument {arg:?}")?,
            UsageError::Threads(e) => return write!(f, "{e}"),
        }
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        write!(
            f,
            "\nusage: fig [<name>] [--quick]; names: {}",
            names.join(", ")
        )
    }
}

/// A run of [`FIGURES`] entries: one of them, or all.
type Entries = &'static [(&'static str, Figure)];

/// The figures to run (the named one, or the whole registry), whether at
/// smoke scale, and on which sweep.
fn parse(args: &[String]) -> Result<(Entries, bool, Sweep), UsageError> {
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
    let figures = match name {
        None => &FIGURES[..],
        Some(name) => {
            let i = FIGURES
                .iter()
                .position(|(known, _)| known == name)
                .ok_or_else(|| UsageError::UnknownFigure(name.clone()))?;
            &FIGURES[i..=i]
        }
    };
    let sweep = Sweep::from_env().map_err(UsageError::Threads)?;
    Ok((figures, quick, sweep))
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
    let (figures, quick, sweep) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fig: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(std::env::var_os("RESULTS_DIR").unwrap_or_else(|| "results".into()));
    for (name, figure) in figures {
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
        if let Err(e) = report.emit(&dir, &mut std::io::stdout().lock()) {
            eprintln!("{name}: cannot write under {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
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

    /// The names of the figures the arguments select, and `--quick`.
    fn parse_args(args: &[&str]) -> Result<(Vec<&'static str>, bool), UsageError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(figures, quick, _)| (figures.iter().map(|(n, _)| *n).collect(), quick))
    }

    fn unexpected(args: &[&str]) -> Option<String> {
        match parse_args(args) {
            Err(UsageError::UnexpectedArg(arg)) => Some(arg),
            _ => None,
        }
    }

    #[test]
    fn the_flag_may_come_before_or_after_the_name() {
        let fig1 = |quick| Some((vec!["fig1"], quick));
        assert_eq!(parse_args(&["--quick", "fig1"]).ok(), fig1(true));
        assert_eq!(parse_args(&["fig1", "--quick"]).ok(), fig1(true));
        assert_eq!(parse_args(&["fig1"]).ok(), fig1(false));
    }

    #[test]
    fn no_name_selects_every_figure_in_registry_order() {
        let all: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        assert_eq!(parse_args(&[]).ok(), Some((all.clone(), false)));
        assert_eq!(parse_args(&["--quick"]).ok(), Some((all, true)));
    }

    #[test]
    fn a_misspelt_flag_is_blamed_in_either_order() {
        assert_eq!(unexpected(&["--quik", "fig1"]).as_deref(), Some("--quik"));
        assert_eq!(unexpected(&["fig1", "--quik"]).as_deref(), Some("--quik"));
        assert_eq!(unexpected(&["--quik"]).as_deref(), Some("--quik"));
        let message = parse_args(&["--quik", "fig1"]).err().map(|e| e.to_string());
        assert!(message.is_some_and(|m| m.starts_with("unexpected argument \"--quik\"")));
    }

    #[test]
    fn a_second_name_is_unexpected() {
        assert_eq!(unexpected(&["fig1", "fig2"]).as_deref(), Some("fig2"));
    }

    #[test]
    fn an_unknown_name_is_reported() {
        assert!(
            matches!(parse_args(&["fig9"]), Err(UsageError::UnknownFigure(name)) if name == "fig9")
        );
    }
}
