//! PBS-style (Δ,p)-staleness from recorded histories.
//!
//! Bailis et al.'s *probabilistically bounded staleness* asks: what is the
//! probability that a read issued Δ after a write's acknowledgement
//! returns that write (or newer)? The empirical analog over a recorded
//! history assigns every successful point read a *staleness margin*:
//!
//! * a fresh read (observed ≥ the issue-time expectation, or no prior
//!   acked write) has margin 0;
//! * a stale read's margin is the age of the missed expectation — the
//!   interval from the acknowledgement of the newest write the read
//!   should have seen to the read's issue instant. The read was *that*
//!   far behind, so only a Δ at least that large would have tolerated it.
//!
//! `p(Δ)` is then the fraction of reads with margin ≤ Δ — an empirical
//! CDF, monotone non-decreasing in Δ by construction, with `p(0)` the
//! fresh fraction and `p(∞) = 1`.

use simkit::{FastHashMap, SimTime};

use crate::history::{Fate, History};
use crate::session::PhaseWindow;

/// Per-read staleness margins (µs) of every successful point read in the
/// history, bucketed into the given windows by the read's settle time.
/// Reads settling outside every window are dropped.
///
/// Margins resolve a stale read's missed expectation to the settle
/// (acknowledgement) time of the write that produced it, which is why
/// the recorder always keeps writes from every client.
pub fn margins(history: &History, windows: &[PhaseWindow]) -> Vec<Vec<u64>> {
    // (record id, assigned ts) -> earliest acknowledgement time.
    let mut acked: FastHashMap<(u64, u64), SimTime> = FastHashMap::default();
    for r in history.records() {
        if let Fate::Write { ts } = r.fate {
            let slot = acked.entry((r.id, ts)).or_insert(r.settled);
            *slot = (*slot).min(r.settled);
        }
    }
    let mut out = vec![Vec::new(); windows.len()];
    for r in history.records() {
        let Fate::Read {
            expected_ts,
            observed_ts,
        } = r.fate
        else {
            continue;
        };
        let Some(slot) = windows.iter().position(|w| w.contains(r.settled)) else {
            continue;
        };
        let fresh = expected_ts == 0 || observed_ts.unwrap_or(0) >= expected_ts;
        let margin = if fresh {
            0
        } else {
            match acked.get(&(r.id, expected_ts)) {
                Some(&ack) => r.issued.saturating_sub(ack),
                // The expectation's write was not recorded (partial replay):
                // the read was at least "just" stale.
                None => 0,
            }
        };
        out[slot].push(margin);
    }
    out
}

/// The empirical (Δ,p) curve: for each Δ, the fraction of reads whose
/// staleness margin is ≤ Δ. Monotone non-decreasing in Δ by construction;
/// an empty margin set yields `p = 1.0` everywhere (no read was ever
/// stale, vacuously).
pub fn curve(margins: &[u64], deltas_us: &[u64]) -> Vec<(u64, f64)> {
    deltas_us
        .iter()
        .map(|&d| {
            let p = if margins.is_empty() {
                1.0
            } else {
                margins.iter().filter(|&&m| m <= d).count() as f64 / margins.len() as f64
            };
            (d, p)
        })
        .collect()
}

/// The `q`-quantile (`0.0..=1.0`) of a margin set, exact (nearest-rank on
/// a sorted copy). 0 when empty.
pub fn quantile(margins: &[u64], q: f64) -> u64 {
    if margins.is_empty() {
        return 0;
    }
    let mut sorted = margins.to_vec();
    sorted.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use storage::OpKind;

    const A: u64 = 1;
    const B: u64 = 2;

    fn whole_run() -> Vec<PhaseWindow> {
        vec![PhaseWindow {
            label: "all",
            start_us: 0,
            end_us: SimTime::MAX,
        }]
    }

    fn write(id: u64, settled: SimTime, ts: u64) -> OpRecord {
        OpRecord {
            client: 0,
            kind: OpKind::Update,
            id,
            issued: settled.saturating_sub(5),
            settled,
            measured: true,
            fate: Fate::Write { ts },
        }
    }

    fn read(id: u64, issued: SimTime, expected: u64, observed: Option<u64>) -> OpRecord {
        OpRecord {
            client: 0,
            kind: OpKind::Read,
            id,
            issued,
            settled: issued + 5,
            measured: true,
            fate: Fate::Read {
                expected_ts: expected,
                observed_ts: observed,
            },
        }
    }

    #[test]
    fn fresh_reads_have_zero_margin_and_stale_reads_age() {
        let h = History::from_records(vec![
            write(A, 100, 7),         // acked at t=100
            read(A, 150, 7, Some(7)), // fresh
            read(A, 400, 7, Some(3)), // stale: expectation acked 300µs ago
            read(A, 600, 7, None),    // missing: expectation acked 500µs ago
        ]);
        let m = margins(&h, &whole_run());
        assert_eq!(m[0], vec![0, 300, 500]);
    }

    #[test]
    fn curve_is_an_empirical_cdf_monotone_in_delta() {
        let m = vec![0, 0, 300, 500];
        let c = curve(&m, &[0, 100, 300, 500, 1_000]);
        let ps: Vec<f64> = c.iter().map(|&(_, p)| p).collect();
        assert_eq!(ps, vec![0.5, 0.5, 0.75, 1.0, 1.0]);
        for w in ps.windows(2) {
            assert!(w[1] >= w[0], "p must be monotone non-decreasing in Δ");
        }
        assert_eq!(curve(&[], &[0, 10]), vec![(0, 1.0), (10, 1.0)]);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let m = vec![500, 0, 300, 0];
        assert_eq!(quantile(&m, 0.5), 0);
        assert_eq!(quantile(&m, 0.75), 300);
        assert_eq!(quantile(&m, 1.0), 500);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn margins_bucket_by_window_and_never_written_keys_are_fresh() {
        let windows = vec![
            PhaseWindow {
                label: "early",
                start_us: 0,
                end_us: 200,
            },
            PhaseWindow {
                label: "late",
                start_us: 200,
                end_us: SimTime::MAX,
            },
        ];
        let h = History::from_records(vec![
            write(A, 100, 7),
            read(B, 10, 0, None),     // early; never written: margin 0
            read(A, 300, 7, Some(1)), // late; stale by 200µs
        ]);
        let m = margins(&h, &windows);
        assert_eq!(m[0], vec![0]);
        assert_eq!(m[1], vec![200]);
    }
}
