//! Golden test over the figure registry: every artifact's `--quick` output
//! is independent of the sweep schedule (one worker against four) and
//! byte-identical to its checked-in golden.
//!
//! Goldens: `tests/golden/<name>.txt` is the figure's stdout text (without
//! the `… written to <path>` lines, which depend on `RESULTS_DIR`). A file
//! the figure writes is compared with `tests/golden/<file>` when that
//! exists — the figures whose `results/` copy is the full-scale run — and
//! with `results/<file>` otherwise (checked in at quick scale). To
//! regenerate after an intentional model change, run
//! `RESULTS_DIR=<dir> fig <name> --quick` and copy the outputs over.

use std::path::Path;

use cloudserve::bench_core::{Part, Sweep, FIGURES};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn quick_figures_are_schedule_independent_and_match_their_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden");
    for (name, figure) in FIGURES {
        let serial = figure(true, &Sweep::new().with_threads(1));
        let threaded = figure(true, &Sweep::new().with_threads(4));
        assert_eq!(serial.parts, threaded.parts, "{name}: schedule leaked");
        assert_eq!(
            serial.text(),
            read(&golden.join(format!("{name}.txt"))),
            "{name}: stdout text drifted"
        );
        for part in &serial.parts {
            if let Part::File {
                name: file, body, ..
            } = part
            {
                let mut path = golden.join(file);
                if !path.exists() {
                    path = root.join("results").join(file);
                }
                assert_eq!(*body, read(&path), "{name}: {file} drifted");
            }
        }
    }
}
