//! Open-loop arrival processes: Poisson traffic split over a weighted
//! multi-tenant mix.
//!
//! YCSB's closed loop ties the request rate to the server's completion rate:
//! when the store slows down the clients slow down with it, queues never
//! build, and the latency numbers suffer *coordinated omission* — the slow
//! periods are underrepresented exactly because they were slow. An open-loop
//! client instead draws arrival instants from an external stochastic process
//! (here: a Poisson process) and issues at those instants
//! regardless of how the store is doing, which is how production traffic
//! behaves and what makes saturation visible.
//!
//! Because arrivals are *simulated events*, an op's issue time in the sim IS
//! its intended start time — there is no client-side stall that would push
//! issuance late, so open-loop percentiles measured from issue are
//! coordinated-omission-free by construction.
//!
//! Everything here is deterministic given an RNG: interarrivals are inverse
//! -CDF draws, tenant selection is a single uniform draw against cumulative
//! weights. Like the rest of the crate, the module draws from a
//! [`SimRng`] and is otherwise simulation-agnostic (plain `u64`
//! microsecond times).
//!
//! The arrival process feeds every open-loop run's event stream, so unwraps
//! are banned (crate-wide, outside tests).

use simkit::time::MICROS_PER_SEC;
use simkit::SimRng;

/// One tenant in a multi-tenant open-loop mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display name used in per-tenant report columns.
    pub name: &'static str,
    /// Share of total arrivals routed to this tenant (weights are
    /// normalised over the tenant list).
    pub weight: f64,
    /// Scheduling priority carried to the store's admission controller:
    /// `0` is highest (shed last).
    pub priority: u8,
}

impl Tenant {
    /// A single default tenant: full weight, top priority.
    pub(crate) fn solo() -> Self {
        Self {
            name: "all",
            weight: 1.0,
            priority: 0,
        }
    }
}

/// An open-loop (Poisson) arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoop {
    /// Offered load, arrivals per second of virtual time.
    pub ops_per_sec: f64,
    /// Tenant mix. An empty list is one implicit tenant at priority 0.
    pub tenants: Vec<Tenant>,
}

impl OpenLoop {
    /// A single-tenant Poisson process at `ops_per_sec`.
    pub fn poisson(ops_per_sec: f64) -> Self {
        Self {
            ops_per_sec,
            tenants: vec![Tenant::solo()],
        }
    }

    /// Draw the next interarrival gap, µs: exponential with the offered
    /// rate (floored at 1e-9 arrivals/s, so a zero rate still gives finite
    /// gaps), floored at 1 µs so the event queue always advances.
    pub fn next_interarrival_us(&self, rng: &mut SimRng) -> u64 {
        let lambda_per_us = self.ops_per_sec.max(1e-9) / MICROS_PER_SEC as f64;
        let u = rng.unit();
        // Inverse CDF of Exp(λ); `1 - u` keeps the argument in (0, 1].
        let gap = -(1.0 - u).ln() / lambda_per_us;
        (gap as u64).max(1)
    }

    /// Pick the issuing tenant for one arrival: a single uniform draw
    /// against cumulative weights. Returns the tenant index.
    pub fn pick_tenant(&self, rng: &mut SimRng) -> usize {
        if self.tenants.len() <= 1 {
            return 0;
        }
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        let mut u = rng.unit() * total;
        for (i, t) in self.tenants.iter().enumerate() {
            u -= t.weight;
            if u <= 0.0 {
                return i;
            }
        }
        self.tenants.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    #[test]
    fn flat_poisson_mean_matches_rate() {
        let ol = OpenLoop::poisson(1_000.0); // mean gap 1000 µs
        let mut r = rng(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| ol.next_interarrival_us(&mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1_000.0).abs() < 30.0,
            "mean interarrival {mean} µs, expected ~1000"
        );
    }

    #[test]
    fn tenant_pick_follows_weights() {
        let ol = OpenLoop {
            tenants: vec![
                Tenant {
                    name: "hot",
                    weight: 0.75,
                    priority: 0,
                },
                Tenant {
                    name: "batch",
                    weight: 0.25,
                    priority: 2,
                },
            ],
            ..OpenLoop::poisson(100.0)
        };
        let mut r = rng(3);
        let n = 10_000;
        let hot = (0..n).filter(|_| ol.pick_tenant(&mut r) == 0).count();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn interarrival_draws_are_seed_deterministic() {
        let ol = OpenLoop::poisson(2_000.0);
        let a: Vec<u64> = {
            let mut r = rng(42);
            (0..64).map(|_| ol.next_interarrival_us(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(42);
            (0..64).map(|_| ol.next_interarrival_us(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
