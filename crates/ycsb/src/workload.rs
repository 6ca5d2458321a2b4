//! Workload specifications: operation mixes, request distributions, and the
//! concrete workloads the paper benchmarks.
//!
//! Table 1 of the paper defines five stress workloads; the micro benchmark
//! runs rounds of a single atomic operation each. The YCSB core workloads
//! A–F are included as well (the paper's five are adaptations of them).

use simkit::SimRng;

use crate::generator::{RequestDistribution, Zipfian};
use storage::OpKind;

/// Which request distribution a workload uses (resolved into a
/// [`RequestDistribution`] once the record count is known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionKind {
    /// Uniform over all records.
    Uniform,
    /// Zipfian with popularity scattered over the key space.
    Zipfian,
    /// Skewed toward the newest records.
    Latest,
}

/// An operation mix: fractions must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of point reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of scans.
    pub scan: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
}

impl OpMix {
    /// Validate the mix sums to 1 (±1e-9).
    pub fn is_valid(&self) -> bool {
        let sum = self.read + self.update + self.insert + self.scan + self.rmw;
        (sum - 1.0).abs() < 1e-9
            && [self.read, self.update, self.insert, self.scan, self.rmw]
                .iter()
                .all(|&f| (0.0..=1.0).contains(&f))
    }

    /// Draw an operation kind.
    pub fn choose(&self, rng: &mut SimRng) -> OpKind {
        let mut u = rng.unit();
        for (frac, kind) in [
            (self.read, OpKind::Read),
            (self.update, OpKind::Update),
            (self.insert, OpKind::Insert),
            (self.scan, OpKind::Scan),
            (self.rmw, OpKind::ReadModifyWrite),
        ] {
            if u < frac {
                return kind;
            }
            u -= frac;
        }
        OpKind::Read
    }
}

/// A complete workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Short name used in reports (e.g. `"read latest"`).
    pub name: String,
    /// The paper's "typical usage" column, for Table 1 rendering.
    pub typical_usage: String,
    /// Operation mix.
    pub mix: OpMix,
    /// Request distribution over record ids.
    pub distribution: DistributionKind,
    /// Maximum scan length (rows); actual lengths are uniform in `1..=max`.
    pub max_scan_len: usize,
}

impl WorkloadSpec {
    fn new(
        name: &str,
        usage: &str,
        mix: OpMix,
        distribution: DistributionKind,
        max_scan_len: usize,
    ) -> Self {
        debug_assert!(mix.is_valid(), "op mix for {name} does not sum to 1");
        Self {
            name: name.to_owned(),
            typical_usage: usage.to_owned(),
            mix,
            distribution,
            max_scan_len,
        }
    }

    /// Resolve the request distribution for a given record count.
    pub fn request_distribution(&self, records: u64) -> RequestDistribution {
        match self.distribution {
            DistributionKind::Uniform => RequestDistribution::Uniform { items: records },
            DistributionKind::Zipfian => {
                RequestDistribution::ScrambledZipfian(Zipfian::new(records))
            }
            DistributionKind::Latest => RequestDistribution::Latest(Zipfian::new(records)),
        }
    }

    /// Draw a scan length.
    pub fn scan_len(&self, rng: &mut SimRng) -> usize {
        1 + rng.below(self.max_scan_len.max(1) as u64) as usize
    }

    // ----- the paper's Table 1 -----

    /// *Read mostly* — online tagging; read/update 95/5, zipfian.
    pub fn read_mostly() -> Self {
        Self::new(
            "read mostly",
            "Online tagging",
            OpMix {
                read: 0.95,
                update: 0.05,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            DistributionKind::Zipfian,
            100,
        )
    }

    /// *Read latest* — feeds reading; read/insert 80/20, latest.
    pub fn read_latest() -> Self {
        Self::new(
            "read latest",
            "Feeds reading",
            OpMix {
                read: 0.80,
                update: 0.0,
                insert: 0.20,
                scan: 0.0,
                rmw: 0.0,
            },
            DistributionKind::Latest,
            100,
        )
    }

    /// *Read & update* — online shopping cart; read/update 50/50, zipfian.
    pub fn read_update() -> Self {
        Self::new(
            "read & update",
            "Online shopping cart",
            OpMix {
                read: 0.50,
                update: 0.50,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            DistributionKind::Zipfian,
            100,
        )
    }

    /// *Read-modify-write* — user profile; read/RMW 50/50, zipfian.
    pub fn read_modify_write() -> Self {
        Self::new(
            "read-modify-write",
            "User profile",
            OpMix {
                read: 0.50,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.50,
            },
            DistributionKind::Zipfian,
            100,
        )
    }

    /// *Scan short ranges* — topic retrieving; scan/insert 95/5, zipfian.
    pub fn scan_short_ranges() -> Self {
        Self::new(
            "scan short ranges",
            "Topic retrieving",
            OpMix {
                read: 0.0,
                update: 0.0,
                insert: 0.05,
                scan: 0.95,
                rmw: 0.0,
            },
            DistributionKind::Zipfian,
            100,
        )
    }

    /// The five Table 1 stress workloads, in the paper's order.
    pub fn paper_stress_workloads() -> Vec<Self> {
        vec![
            Self::read_latest(),
            Self::scan_short_ranges(),
            Self::read_mostly(),
            Self::read_modify_write(),
            Self::read_update(),
        ]
    }

    // ----- YCSB core workloads A and E, which `benchmark/` runs -----

    /// YCSB A: update heavy, 50/50 read/update, zipfian.
    pub fn ycsb_a() -> Self {
        let mut w = Self::read_update();
        w.name = "ycsb-a".into();
        w.typical_usage = "Session store".into();
        w
    }

    /// YCSB E: short ranges, 95/5 scan/insert.
    pub fn ycsb_e() -> Self {
        let mut w = Self::scan_short_ranges();
        w.name = "ycsb-e".into();
        w.typical_usage = "Threaded conversations".into();
        w
    }

    /// A single-operation micro workload (the Fig. 1 rounds).
    pub fn micro(kind: OpKind) -> Self {
        let mix = match kind {
            OpKind::Read => OpMix {
                read: 1.0,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            OpKind::Update => OpMix {
                read: 0.0,
                update: 1.0,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            OpKind::Insert => OpMix {
                read: 0.0,
                update: 0.0,
                insert: 1.0,
                scan: 0.0,
                rmw: 0.0,
            },
            OpKind::Scan => OpMix {
                read: 0.0,
                update: 0.0,
                insert: 0.0,
                scan: 1.0,
                rmw: 0.0,
            },
            other => panic!("no micro workload for {other}"),
        };
        Self::new(
            &format!("micro-{}", kind.label().to_lowercase()),
            "Micro benchmark",
            mix,
            DistributionKind::Uniform,
            50,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mixes_are_valid_and_match_table1() {
        let ws = WorkloadSpec::paper_stress_workloads();
        assert_eq!(ws.len(), 5);
        for w in &ws {
            assert!(w.mix.is_valid(), "{} mix invalid", w.name);
        }
        let rm = WorkloadSpec::read_mostly();
        assert!((rm.mix.read - 0.95).abs() < 1e-12);
        assert!((rm.mix.update - 0.05).abs() < 1e-12);
        assert_eq!(rm.distribution, DistributionKind::Zipfian);

        let rl = WorkloadSpec::read_latest();
        assert!((rl.mix.insert - 0.20).abs() < 1e-12);
        assert_eq!(rl.distribution, DistributionKind::Latest);

        let sc = WorkloadSpec::scan_short_ranges();
        assert!((sc.mix.scan - 0.95).abs() < 1e-12);
    }

    #[test]
    fn choose_matches_mix_fractions() {
        let mix = WorkloadSpec::read_mostly().mix;
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let reads = (0..n)
            .filter(|_| mix.choose(&mut rng) == OpKind::Read)
            .count();
        let share = reads as f64 / n as f64;
        assert!((share - 0.95).abs() < 0.01, "read share {share}");
    }

    #[test]
    fn rmw_kind_is_chosen() {
        let mix = WorkloadSpec::read_modify_write().mix;
        let mut rng = SimRng::new(6);
        let n = 10_000;
        let rmws = (0..n)
            .filter(|_| mix.choose(&mut rng) == OpKind::ReadModifyWrite)
            .count();
        assert!((rmws as f64 / n as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn write_fraction_ranks_workloads_like_the_paper() {
        // Paper: "the bigger write proportion, the more obvious performance
        // difference". read&update (50%) > read latest (20%) > read mostly (5%).
        // Writes: updates + inserts + the write half of each RMW.
        let write_fraction = |w: WorkloadSpec| w.mix.update + w.mix.insert + w.mix.rmw;
        let ru = write_fraction(WorkloadSpec::read_update());
        let rl = write_fraction(WorkloadSpec::read_latest());
        let rm = write_fraction(WorkloadSpec::read_mostly());
        assert!(ru > rl && rl > rm);
    }

    #[test]
    fn micro_workloads_are_pure() {
        let mut rng = SimRng::new(1);
        for kind in [OpKind::Read, OpKind::Update, OpKind::Insert, OpKind::Scan] {
            let w = WorkloadSpec::micro(kind);
            assert!(w.mix.is_valid());
            for _ in 0..100 {
                assert_eq!(w.mix.choose(&mut rng), kind);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no micro workload")]
    fn micro_rejects_rmw() {
        let _ = WorkloadSpec::micro(OpKind::ReadModifyWrite);
    }

    #[test]
    fn scan_len_in_bounds() {
        let w = WorkloadSpec::scan_short_ranges();
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let len = w.scan_len(&mut rng);
            assert!((1..=100).contains(&len));
        }
    }

    #[test]
    fn distribution_resolution() {
        let w = WorkloadSpec::read_latest();
        assert!(matches!(
            w.request_distribution(500),
            RequestDistribution::Latest(z) if z.items() == 500
        ));
        let w = WorkloadSpec::read_mostly();
        assert!(matches!(
            w.request_distribution(500),
            RequestDistribution::ScrambledZipfian(_)
        ));
    }

    #[test]
    fn ycsb_core_workloads_are_valid() {
        for w in [WorkloadSpec::ycsb_a(), WorkloadSpec::ycsb_e()] {
            assert!(w.mix.is_valid(), "{} invalid", w.name);
        }
    }
}
