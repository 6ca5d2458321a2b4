//! `fig [<name>] [--quick]` — regenerate the evaluation artifacts.
//!
//! With no name, `fig` runs every entry of [`bench_core::FIGURES`] in
//! registry order, in one process; at full scale that run writes all of
//! `results/`. A `<name>` (`table1`, `fig1`…`fig8`, `fig10`, `ablations`)
//! runs that figure alone. Each figure's tables go to stdout, its
//! CSV/JSONL files under `RESULTS_DIR`, its wall time and sweep telemetry
//! to stderr. The process's peak RSS closes stderr: on the figure's own
//! line for a named run, on an `all: done in …` line for the whole
//! registry. `--quick` runs the smoke-scale configurations;
//! `results/` holds only full-scale files, so a quick run needs
//! `RESULTS_DIR` and is refused without it, while a full-scale run writes
//! to `results/` by default. `SWEEP_THREADS=n` sets the worker count
//! (never the bytes).

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

use bench_core::{BadSweepThreads, Figure, Sweep, FIGURES};

/// Why the command line or environment was rejected (exit code 2).
#[derive(Debug)]
enum UsageError {
    UnknownFigure(String),
    /// A flag other than `--quick`, or a second figure name.
    UnexpectedArg(String),
    /// `--quick` without `RESULTS_DIR`: it would overwrite `results/`.
    QuickNeedsResultsDir,
    Threads(BadSweepThreads),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::UnknownFigure(name) => write!(f, "unknown figure {name:?}")?,
            UsageError::UnexpectedArg(arg) => write!(f, "unexpected argument {arg:?}")?,
            UsageError::QuickNeedsResultsDir => write!(
                f,
                "--quick needs RESULTS_DIR: results/ holds the full-scale files"
            )?,
            UsageError::Threads(e) => return write!(f, "{e}"),
        }
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        write!(
            f,
            "\nusage: [RESULTS_DIR=<dir>] fig [<name>] [--quick]; names: {}",
            names.join(", ")
        )
    }
}

/// A run of [`FIGURES`] entries: one of them, or all.
type Entries = &'static [(&'static str, Figure)];

/// What to run: the figures (the named one, or the whole registry), whether
/// at smoke scale, where their files go, and on which sweep.
struct Run {
    figures: Entries,
    quick: bool,
    dir: PathBuf,
    sweep: Sweep,
}

/// The run that the arguments and the `RESULTS_DIR` value ask for.
fn parse(args: &[String], results_dir: Option<OsString>) -> Result<Run, UsageError> {
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
    let dir = match results_dir {
        Some(dir) => PathBuf::from(dir),
        None if quick => return Err(UsageError::QuickNeedsResultsDir),
        None => PathBuf::from("results"),
    };
    let sweep = Sweep::from_env().map_err(UsageError::Threads)?;
    Ok(Run {
        figures,
        quick,
        dir,
        sweep,
    })
}

/// The peak resident set size in MB that a `/proc/<pid>/status` text
/// gives on its `VmHWM` line; `None` without one.
fn peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The stderr line that ends the run of `name`: its wall time, and the
/// peak RSS when `peak_mb` is given.
fn done_line(name: &str, secs: f64, peak_mb: Option<f64>) -> String {
    match peak_mb {
        Some(mb) => format!("{name}: done in {secs:.1}s, peak RSS {mb:.0} MB"),
        None => format!("{name}: done in {secs:.1}s"),
    }
}

/// The process's peak RSS so far, in MB; `None` where `/proc` is missing.
fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Run {
        figures,
        quick,
        dir,
        sweep,
    } = match parse(&args, std::env::var_os("RESULTS_DIR")) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fig: {e}");
            return ExitCode::from(2);
        }
    };
    // `VmHWM` only grows, so a per-figure reading of a whole-registry run
    // would repeat the largest figure's so far: report it once, at the end.
    let named = figures.len() == 1;
    let started = std::time::Instant::now();
    for (name, figure) in figures {
        let figure_started = std::time::Instant::now();
        let report = figure(quick, &sweep);
        let secs = figure_started.elapsed().as_secs_f64();
        let peak = if named { own_peak_rss_mb() } else { None };
        eprintln!("{}", done_line(name, secs, peak));
        if let Some(telemetry) = &report.telemetry {
            eprintln!("{name}: {}", telemetry.summary());
        }
        if let Err(e) = report.emit(&dir, &mut std::io::stdout().lock()) {
            eprintln!("{name}: cannot write under {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if !named {
        let secs = started.elapsed().as_secs_f64();
        eprintln!("{}", done_line("all", secs, own_peak_rss_mb()));
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

    #[test]
    fn a_done_line_carries_peak_rss_only_when_given() {
        assert_eq!(done_line("fig1", 3.44, None), "fig1: done in 3.4s");
        // CI reads the peak from the `, peak RSS <n> MB` line end.
        assert_eq!(
            done_line("all", 19.04, Some(227.6)),
            "all: done in 19.0s, peak RSS 228 MB"
        );
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The names of the figures the arguments select, and `--quick`, with
    /// `RESULTS_DIR` set.
    fn parse_args(args: &[&str]) -> Result<(Vec<&'static str>, bool), UsageError> {
        parse(&strings(args), Some("out".into()))
            .map(|run| (run.figures.iter().map(|(n, _)| *n).collect(), run.quick))
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

    #[test]
    fn a_quick_run_needs_a_results_dir_and_a_full_one_defaults_to_results() {
        for args in [&["--quick"][..], &["fig4", "--quick"], &["--quick", "fig1"]] {
            let refused = parse(&strings(args), None).err();
            assert!(
                matches!(refused, Some(UsageError::QuickNeedsResultsDir)),
                "{args:?}"
            );
        }
        let message = UsageError::QuickNeedsResultsDir.to_string();
        assert!(
            message.starts_with("--quick needs RESULTS_DIR"),
            "{message}"
        );
        assert!(
            message.contains("usage: [RESULTS_DIR=<dir>] fig"),
            "{message}"
        );
        let dir = |args: &[&str], set: Option<&str>| {
            parse(&strings(args), set.map(OsString::from))
                .ok()
                .map(|run| run.dir)
        };
        assert_eq!(dir(&[], None), Some(PathBuf::from("results")));
        assert_eq!(dir(&["fig4"], None), Some(PathBuf::from("results")));
        assert_eq!(
            dir(&["--quick"], Some("/tmp/q")),
            Some(PathBuf::from("/tmp/q"))
        );
        assert_eq!(dir(&["fig4"], Some("out")), Some(PathBuf::from("out")));
    }
}
