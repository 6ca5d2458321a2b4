//! Golden test over the figure registry: every artifact's `--quick` output
//! is independent of the sweep schedule (one worker against four) and
//! byte-identical to its checked-in golden.
//!
//! Goldens: `tests/golden/<name>.txt` is the figure's stdout text (without
//! the `… written to <path>` lines, which depend on `RESULTS_DIR`), and
//! `tests/golden/<file>` each file it writes. To regenerate after an
//! intentional model change, run `RESULTS_DIR=<dir> fig --quick` and copy
//! the outputs over. `results/` holds the full-scale run of the same
//! registry (`fig` with no arguments); this test checks only that it holds
//! exactly the files the registry writes, plus its `README.md`.

use std::collections::BTreeSet;
use std::path::Path;

use cloudserve::bench_core::{Part, Sweep, FIGURES};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn quick_figures_are_schedule_independent_and_match_their_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden");
    let mut written = BTreeSet::from(["README.md".to_string()]);
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
                assert_eq!(*body, read(&golden.join(file)), "{name}: {file} drifted");
                written.insert(file.to_string());
            }
        }
    }
    let results: BTreeSet<String> = std::fs::read_dir(root.join("results"))
        .and_then(|dir| {
            dir.map(|entry| entry.map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_else(|e| panic!("results/: {e}"));
    assert_eq!(results, written, "results/ is not the registry's file set");
}
