//! The experiment grid: one description per figure, one engine for all.
//!
//! Every artifact of the paper (Table 1, Figs 1–3) and of this repo's
//! extensions (Figs 4–8, 10, the ablations) is the same procedure applied
//! to a grid: enumerate independent cells, give each a loaded store and a
//! [`DriverConfig`], run it deterministically, reduce the outcome to a
//! typed row, then render tables and CSVs. An [`Experiment`] *describes*
//! one such grid; the engine here owns everything the descriptions share:
//!
//! * the base-state pool — cells whose stores would load the same data
//!   (each cluster's `loads_like` says which settings its load reads) share
//!   one bulk load, and every cell runs on its own fresh build holding a
//!   copy-on-write snapshot of that data;
//! * scheduling on a [`Sweep`] and result ordering (cells come back in
//!   [`Experiment::specs`] order, whatever the thread count);
//! * `Grid::cell` lookup, pool telemetry, and the [`Report`] — stdout
//!   text plus the files written under `RESULTS_DIR`;
//! * the [`FIGURES`] registry the `fig` binary and the golden test walk.
//!
//! # Adding a figure
//!
//! Write one module with a config struct that embeds a [`RunShape`],
//! implement [`Experiment`] for it (grid, each cell's store, driver
//! config, row, report), and add one line to [`FIGURES`]. The struct has a
//! field only for what `quick()` and `Default` set differently; every
//! other setting is a constant beside its one reader. A report's
//! tables are column lists over the grid's rows (`Table::of`,
//! `point_cols`).

use std::io::Write;
use std::path::Path;

use cstore::Consistency;
use ycsb::WorkloadSpec;

use crate::driver::{self, DriverConfig, RunOutcome};
use crate::report::{Columns, Table};
use crate::setup::{build_cstore, build_hstore, Scale, StoreKind};
use crate::sweep::{BasePool, Sweep, Telemetry};

/// One consistency strategy: a named (read, write) level pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Level {
    /// Display name ("ONE", "QUORUM", "write ALL", …).
    pub name: &'static str,
    /// Read consistency.
    pub read: Consistency,
    /// Write consistency.
    pub write: Consistency,
}

impl Level {
    const fn both(name: &'static str, cl: Consistency) -> Self {
        Self {
            name,
            read: cl,
            write: cl,
        }
    }

    /// Read one replica, write one replica.
    pub(crate) const ONE: Self = Self::both("ONE", Consistency::One);
    /// Majority reads and writes.
    pub(crate) const QUORUM: Self = Self::both("QUORUM", Consistency::Quorum);
    /// Write to all replicas, read from one.
    pub(crate) const WRITE_ALL: Self = Self {
        name: "write ALL",
        read: Consistency::One,
        write: Consistency::All,
    };
    /// A quorum of the coordinator's datacenter only.
    pub(crate) const LOCAL_QUORUM: Self = Self::both("LOCAL_QUORUM", Consistency::LocalQuorum);
    /// A quorum in every datacenter.
    pub(crate) const EACH_QUORUM: Self = Self::both("EACH_QUORUM", Consistency::EachQuorum);
    /// The label of the HBase analog, which has no consistency knob (it is
    /// always strongly consistent); the levels are ignored when building it.
    pub(crate) const STRONG: Self = Self::both("strong", Consistency::One);
}

/// The paper's three strategies (§2): ONE, QUORUM, and "Write ALL".
pub(crate) const PAPER_LEVELS: [Level; 3] = [Level::ONE, Level::QUORUM, Level::WRITE_ALL];

/// A grid point of the (store, RF, consistency) figures.
pub(crate) type Point = (StoreKind, u32, Level);

/// The replication factors Figs 4, 6 and 8 sweep, ascending.
pub(crate) const RFS: [u32; 3] = [1, 3, 5];

/// The (store, RF, consistency) grid of Figs 4, 6 and 8: the Cassandra
/// analog under the paper's three levels and the HBase analog's single
/// implicit one, store-major then RF then level — the CSV row order.
pub(crate) fn rf_level_grid(rfs: &[u32]) -> Vec<Point> {
    let stores = [
        (StoreKind::CStore, &PAPER_LEVELS[..]),
        (StoreKind::HStore, &[Level::STRONG][..]),
    ];
    let mut grid = Vec::new();
    for (store, levels) in stores {
        for &rf in rfs {
            grid.extend(levels.iter().map(|&level| (store, rf, level)));
        }
    }
    grid
}

/// The `store, rf, cl` columns of a (store, RF, consistency) table, for
/// rows whose grid point `point` reads.
pub(crate) fn point_cols<R>(t: Columns<R>, point: impl Fn(&R) -> Point + Copy) -> Columns<R> {
    t.col("store", move |r| point(r).0.short().into())
        .col("rf", move |r| point(r).1.to_string())
        .col("cl", move |r| point(r).2.name.into())
}

/// The run shape every figure shares — the fields all of them read: data
/// scale, run length, and the root seed. Client count and pacing stay on
/// the configs that sweep or set them.
#[derive(Debug, Clone)]
pub struct RunShape {
    /// Record/cache scale.
    pub scale: Scale,
    /// Warm-up completions per run.
    pub warmup_ops: u64,
    /// Measured completions per run.
    pub measure_ops: u64,
    /// Root seed: the bulk load and every cell's run use it, so cells
    /// differ only in the knob being swept.
    pub seed: u64,
}

impl RunShape {
    /// The driver configuration of one fair-weather closed-loop run of
    /// `workload` at this shape and seed, with `threads` clients paced to
    /// `target` ops/s cluster-wide (`0.0` = unthrottled); figures override
    /// fields with `..`.
    pub(crate) fn driver(
        &self,
        workload: WorkloadSpec,
        threads: usize,
        target: f64,
    ) -> DriverConfig {
        DriverConfig {
            threads,
            target_ops_per_sec: target,
            value_len: self.scale.value_len,
            warmup_ops: self.warmup_ops,
            measure_ops: self.measure_ops,
            seed: self.seed,
            ..DriverConfig::new(workload, self.scale.records)
        }
    }
}

/// A cluster of either analog: what the engine builds, loads and runs.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Store {
    /// The HBase analog.
    H(hstore::Cluster),
    /// The Cassandra analog.
    C(cstore::Cluster),
}

impl Store {
    /// The paper's testbed at `scale` for one grid point.
    pub(crate) fn paper(scale: &Scale, &(kind, rf, level): &Point) -> Self {
        match kind {
            StoreKind::HStore => Store::H(build_hstore(scale, rf)),
            StoreKind::CStore => Store::C(build_cstore(scale, rf, level.read, level.write)),
        }
    }

    fn load(&mut self, scale: &Scale, seed: u64) {
        match self {
            Store::H(s) => driver::load(s, scale.records, scale.value_len, seed),
            Store::C(s) => driver::load(s, scale.records, scale.value_len, seed),
        }
    }

    /// True when a bulk load leaves both stores holding the same data.
    fn loads_like(&self, other: &Self) -> bool {
        match (self, other) {
            (Store::H(s), Store::H(o)) => s.loads_like(o),
            (Store::C(s), Store::C(o)) => s.loads_like(o),
            _ => false,
        }
    }

    /// This unloaded store holding a copy-on-write snapshot of `loaded`'s
    /// data; `loaded` must load like it.
    fn with_data_of(self, loaded: &Self) -> Self {
        match (self, loaded) {
            (Store::H(s), Store::H(l)) => Store::H(s.with_data_of(l)),
            (Store::C(s), Store::C(l)) => Store::C(s.with_data_of(l)),
            _ => panic!("a cell's store and its loaded data differ in kind"),
        }
    }

    fn run(&mut self, cfg: &DriverConfig) -> RunOutcome {
        match self {
            Store::H(s) => driver::run(s, cfg),
            Store::C(s) => driver::run(s, cfg),
        }
    }
}

/// The description of one figure: its grid and how one cell is built, run
/// and reduced. The config struct itself implements this; `Default` is the
/// full-scale configuration.
pub trait Experiment: Default + Sync + Sized {
    /// One cell of the grid — the coordinates `Grid::cell` looks up by.
    type Spec: PartialEq + Sync;
    /// The typed row one cell reduces to.
    type Cell: Send;

    /// The smoke-scale configuration (`--quick`).
    fn quick() -> Self;
    /// The shared run shape (the engine reads its scale and seed).
    fn shape(&self) -> &RunShape;
    /// Every cell, in output order.
    fn specs(&self) -> Vec<Self::Spec>;
    /// Build (not load) the store of one cell.
    fn build(&self, spec: &Self::Spec) -> Store;
    /// The driver configuration of one cell.
    fn driver(&self, spec: &Self::Spec) -> DriverConfig;
    /// Reduce one run (and the store it ran on) to the cell's row.
    fn cell(&self, spec: &Self::Spec, out: RunOutcome, store: &Store) -> Self::Cell;
    /// The figure's output: stdout text (tables and charts), then the
    /// files written under `RESULTS_DIR`.
    fn report(grid: &Grid<Self>) -> Vec<Part>;

    /// Run the whole grid on a machine-sized sweep.
    fn run(self) -> Grid<Self> {
        self.run_with(&Sweep::new())
    }

    /// Run the whole grid on a caller-configured sweep. Results do not
    /// depend on the sweep's thread count.
    fn run_with(self, sweep: &Sweep) -> Grid<Self> {
        let specs = self.specs();
        // Group the cells by the data their stores load: one unloaded
        // store per group, and each cell's group index.
        let mut groups: Vec<Store> = Vec::new();
        let cells: Vec<(&Self::Spec, usize)> = specs
            .iter()
            .map(|spec| {
                let store = self.build(spec);
                let group = match groups.iter().position(|g| g.loads_like(&store)) {
                    Some(group) => group,
                    None => {
                        groups.push(store);
                        groups.len() - 1
                    }
                };
                (spec, group)
            })
            .collect();
        let pool: BasePool<Store> = BasePool::new(groups.len());
        let (scale, seed) = (&self.shape().scale, self.shape().seed);
        let outcome = sweep.run(&cells, |&(spec, group)| {
            let loaded = pool.get_or_load(group, || {
                let mut store = groups[group].clone();
                store.load(scale, seed);
                store
            });
            let mut store = self.build(spec).with_data_of(loaded);
            let out = store.run(&self.driver(spec));
            self.cell(spec, out, &store)
        });
        let mut telemetry = outcome.telemetry;
        telemetry.record_pool(&pool);
        Grid {
            exp: self,
            specs,
            cells: outcome.results,
            telemetry,
        }
    }
}

/// A finished experiment: the configuration, its grid, and one typed row
/// per grid cell (`cells[i]` belongs to `specs[i]`).
pub struct Grid<E: Experiment> {
    /// The configuration that ran.
    pub exp: E,
    /// The grid, in output order.
    pub specs: Vec<E::Spec>,
    /// One row per spec, same order.
    pub cells: Vec<E::Cell>,
    /// What the sweep cost (wall time, utilization, base loads).
    pub telemetry: Telemetry,
}

impl<E: Experiment> Grid<E> {
    /// The row at grid point `at`.
    pub(crate) fn cell(&self, at: &E::Spec) -> Option<&E::Cell> {
        self.rows().find(|(spec, _)| *spec == at).map(|(_, c)| c)
    }

    /// `(spec, row)` pairs in output order.
    pub fn rows(&self) -> impl Iterator<Item = (&E::Spec, &E::Cell)> {
        self.specs.iter().zip(&self.cells)
    }

    /// The figure's text and files.
    pub(crate) fn report(&self) -> Report {
        Report {
            parts: E::report(self),
            telemetry: Some(self.telemetry.clone()),
        }
    }
}

/// One piece of a figure's output, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// Printed to stdout verbatim.
    Text(String),
    /// Written to `RESULTS_DIR/<name>`.
    File {
        /// File name inside the results directory.
        name: &'static str,
        /// Exact file contents.
        body: String,
        /// When set, stdout gets `"<announce> written to <path>"`.
        announce: Option<&'static str>,
    },
}

impl Part {
    /// A CSV file announced on stdout as `csv written to <path>`.
    pub(crate) fn csv(name: &'static str, table: &Table) -> Self {
        Part::File {
            name,
            body: table.to_csv(),
            announce: Some("csv"),
        }
    }
}

/// Everything one figure produced. `parts` is a pure function of the
/// configuration and seed; `telemetry` is wall-clock accounting.
#[derive(Debug, Clone)]
pub struct Report {
    /// Text and files, in emission order.
    pub parts: Vec<Part>,
    /// The sweep's cost, when the figure ran one.
    pub telemetry: Option<Telemetry>,
}

impl Report {
    /// All stdout text, concatenated (file announcements excluded: they
    /// depend on the results directory).
    pub fn text(&self) -> String {
        self.parts
            .iter()
            .filter_map(|p| match p {
                Part::Text(t) => Some(t.as_str()),
                Part::File { .. } => None,
            })
            .collect()
    }

    /// Print the text to `out` and write the files under `dir` (created
    /// if missing), announcing each as it is written.
    pub fn emit(&self, dir: &Path, out: &mut impl Write) -> std::io::Result<()> {
        for part in &self.parts {
            match part {
                Part::Text(text) => out.write_all(text.as_bytes())?,
                Part::File {
                    name,
                    body,
                    announce,
                } => {
                    std::fs::create_dir_all(dir)?;
                    let path = dir.join(name);
                    std::fs::write(&path, body)?;
                    if let Some(what) = announce {
                        writeln!(out, "{what} written to {}", path.display())?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A registered figure: `quick` selects [`Experiment::quick`] over
/// `Default`, the sweep sets the schedule.
pub type Figure = fn(quick: bool, sweep: &Sweep) -> Report;

fn figure<E: Experiment>(quick: bool, sweep: &Sweep) -> Report {
    let exp = if quick { E::quick() } else { E::default() };
    exp.run_with(sweep).report()
}

/// Every artifact the `fig` binary can regenerate, by name.
pub const FIGURES: [(&str, Figure); 11] = [
    ("table1", |_, _| crate::stress::table1()),
    ("fig1", figure::<crate::micro::MicroConfig>),
    ("fig2", figure::<crate::stress::StressConfig>),
    ("fig3", figure::<crate::consistency::ConsistencyConfig>),
    ("fig4", figure::<crate::failure::FailureConfig>),
    ("fig5", figure::<crate::availability::AvailabilityConfig>),
    ("fig6", figure::<crate::decomposition::DecompositionConfig>),
    ("fig7", figure::<crate::geo_experiment::GeoExperimentConfig>),
    (
        "fig8",
        figure::<crate::audit_experiment::AuditExperimentConfig>,
    ),
    ("fig10", figure::<crate::overload::OverloadConfig>),
    ("ablations", figure::<crate::ablation::AblationConfig>),
];

#[cfg(test)]
#[allow(clippy::expect_used, clippy::unwrap_used)]
mod tests {
    use super::*;

    /// One cstore cell per paper level at RF 3 — Fig. 3's grid in little —
    /// reducing each cell to the levels its own store runs under.
    struct LevelProbe(RunShape);

    impl Default for LevelProbe {
        fn default() -> Self {
            Self(RunShape {
                scale: Scale::tiny(),
                warmup_ops: 50,
                measure_ops: 200,
                seed: 7,
            })
        }
    }

    impl Experiment for LevelProbe {
        type Spec = Level;
        type Cell = (Consistency, Consistency);

        fn quick() -> Self {
            Self::default()
        }

        fn shape(&self) -> &RunShape {
            &self.0
        }

        fn specs(&self) -> Vec<Level> {
            PAPER_LEVELS.to_vec()
        }

        fn build(&self, &level: &Level) -> Store {
            Store::paper(&self.0.scale, &(StoreKind::CStore, 3, level))
        }

        fn driver(&self, _: &Level) -> DriverConfig {
            self.0.driver(WorkloadSpec::read_update(), 4, 0.0)
        }

        fn cell(&self, _: &Level, _: RunOutcome, store: &Store) -> Self::Cell {
            match store {
                Store::C(c) => (c.config().read_cl, c.config().write_cl),
                Store::H(_) => panic!("the probe builds cstore cells only"),
            }
        }

        fn report(_: &Grid<Self>) -> Vec<Part> {
            Vec::new()
        }
    }

    #[test]
    fn cells_share_one_load_and_each_runs_its_own_levels() {
        for threads in [1, 3] {
            let grid = LevelProbe::default().run_with(&Sweep::new().with_threads(threads));
            for (level, &levels) in grid.rows() {
                assert_eq!(levels, (level.read, level.write), "{}", level.name);
            }
            assert_eq!(grid.telemetry.base_loads, 1);
            assert_eq!(grid.telemetry.base_states, 1);
        }
    }

    #[test]
    fn emit_prints_text_and_announcements_in_part_order_and_writes_files() {
        let report = Report {
            parts: vec![
                Part::Text("## table\n".into()),
                Part::File {
                    name: "a.csv",
                    body: "x,y\n1,2\n".into(),
                    announce: Some("csv"),
                },
                Part::File {
                    name: "b.jsonl",
                    body: "{}\n".into(),
                    announce: None,
                },
                Part::Text("tail\n".into()),
            ],
            telemetry: None,
        };
        let tmp = std::env::temp_dir().join(format!("report_emit_{}", std::process::id()));
        let dir = tmp.join("results");
        let mut out = Vec::new();
        report.emit(&dir, &mut out).expect("emit");
        let expected = format!(
            "## table\ncsv written to {}\ntail\n",
            dir.join("a.csv").display()
        );
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        assert_eq!(
            std::fs::read_to_string(dir.join("a.csv")).unwrap(),
            "x,y\n1,2\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("b.jsonl")).unwrap(),
            "{}\n"
        );

        // A results directory that cannot exist (under a regular file) is an
        // error, not a panic.
        let blocker = tmp.join("file");
        std::fs::write(&blocker, "").unwrap();
        assert!(report.emit(&blocker.join("sub"), &mut Vec::new()).is_err());
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
