//! Open-loop arrival processes: Poisson traffic, diurnal rate curves,
//! flash-crowd bursts, and multi-tenant mixes.
//!
//! YCSB's closed loop ties the request rate to the server's completion rate:
//! when the store slows down the clients slow down with it, queues never
//! build, and the latency numbers suffer *coordinated omission* — the slow
//! periods are underrepresented exactly because they were slow. An open-loop
//! client instead draws arrival instants from an external stochastic process
//! (here: a non-homogeneous Poisson process) and issues at those instants
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
//! weights. The module is simulation-agnostic (plain `u64` microsecond
//! times, any `rand::Rng`), like the rest of the crate.
//!
//! The arrival process feeds every open-loop run's event stream, so unwraps
//! are banned (crate-wide, outside tests).

use rand::Rng;

use crate::workload::OpMix;

/// Microseconds per second (local copy; the crate is simkit-agnostic).
const MICROS_PER_SEC: f64 = 1_000_000.0;

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
    /// Per-tenant operation mix; `None` inherits the workload's mix.
    pub mix: Option<OpMix>,
}

impl Tenant {
    /// A single default tenant: full weight, top priority, workload mix.
    pub fn solo() -> Self {
        Self {
            name: "all",
            weight: 1.0,
            priority: 0,
            mix: None,
        }
    }
}

/// A flash-crowd event: for a window of virtual time, the arrival rate is
/// multiplied and a fraction of requests concentrates on a tiny hot key set
/// (a celebrity post, a viral item).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start (µs since the start of the measured run).
    pub start_us: u64,
    /// Window end (µs).
    pub end_us: u64,
    /// Arrival-rate multiplier inside the window.
    pub rate_multiplier: f64,
    /// Fraction of in-window requests redirected to the hot key set.
    pub hot_fraction: f64,
    /// Size of the hot key set (record ids `0..hot_keys`).
    pub hot_keys: u64,
}

impl FlashCrowd {
    /// True while `t` is inside the crowd window.
    pub fn active(&self, t: u64) -> bool {
        t >= self.start_us && t < self.end_us
    }
}

/// An open-loop (non-homogeneous Poisson) arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoop {
    /// Baseline offered load, arrivals per second of virtual time.
    pub ops_per_sec: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the instantaneous rate is
    /// `ops_per_sec * (1 + amplitude * sin(2π t / period))`. `0` keeps the
    /// rate flat.
    pub diurnal_amplitude: f64,
    /// Diurnal period, µs of virtual time (a compressed "day").
    pub diurnal_period_us: u64,
    /// Optional flash-crowd window.
    pub flash: Option<FlashCrowd>,
    /// Tenant mix; must be non-empty (use [`Tenant::solo`] for one tenant).
    pub tenants: Vec<Tenant>,
}

impl OpenLoop {
    /// A flat single-tenant Poisson process at `ops_per_sec`.
    pub fn poisson(ops_per_sec: f64) -> Self {
        Self {
            ops_per_sec,
            diurnal_amplitude: 0.0,
            diurnal_period_us: 0,
            flash: None,
            tenants: vec![Tenant::solo()],
        }
    }

    /// The instantaneous arrival rate (arrivals/sec) at virtual time `t` µs:
    /// baseline × diurnal modulation × flash-crowd multiplier.
    pub fn rate_at(&self, t: u64) -> f64 {
        let mut rate = self.ops_per_sec;
        if self.diurnal_amplitude > 0.0 && self.diurnal_period_us > 0 {
            let phase = (t % self.diurnal_period_us) as f64 / self.diurnal_period_us as f64;
            rate *= 1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        }
        if let Some(f) = &self.flash {
            if f.active(t) {
                rate *= f.rate_multiplier;
            }
        }
        rate.max(1e-9)
    }

    /// Draw the next interarrival gap, µs, for an arrival at time `t`:
    /// exponential with the instantaneous rate (thinning over one gap is
    /// unnecessary at our rate-change timescales), floored at 1 µs so the
    /// event queue always advances.
    pub fn next_interarrival_us<R: Rng + ?Sized>(&self, t: u64, rng: &mut R) -> u64 {
        let lambda_per_us = self.rate_at(t) / MICROS_PER_SEC;
        let u: f64 = rng.gen();
        // Inverse CDF of Exp(λ); `1 - u` keeps the argument in (0, 1].
        let gap = -(1.0 - u).ln() / lambda_per_us;
        (gap as u64).max(1)
    }

    /// Pick the issuing tenant for one arrival: a single uniform draw
    /// against cumulative weights. Returns the tenant index.
    pub fn pick_tenant<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.tenants.len() <= 1 {
            return 0;
        }
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        let mut u: f64 = rng.gen::<f64>() * total;
        for (i, t) in self.tenants.iter().enumerate() {
            u -= t.weight;
            if u <= 0.0 {
                return i;
            }
        }
        self.tenants.len() - 1
    }

    /// If a flash crowd is active at `t`, decide whether this request is
    /// redirected to the hot set and, if so, which hot record it hits.
    /// Draws exactly one `f64` when active (plus one index draw when hot),
    /// zero draws otherwise.
    pub fn flash_redirect<R: Rng + ?Sized>(&self, t: u64, rng: &mut R) -> Option<u64> {
        let f = self.flash.as_ref()?;
        if !f.active(t) {
            return None;
        }
        if rng.gen::<f64>() < f.hot_fraction {
            Some(rng.gen_range(0..f.hot_keys.max(1)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    #[test]
    fn flat_poisson_mean_matches_rate() {
        let ol = OpenLoop::poisson(1_000.0); // mean gap 1000 µs
        let mut r = rng(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| ol.next_interarrival_us(0, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1_000.0).abs() < 30.0,
            "mean interarrival {mean} µs, expected ~1000"
        );
    }

    #[test]
    fn diurnal_curve_modulates_rate() {
        let ol = OpenLoop {
            diurnal_amplitude: 0.5,
            diurnal_period_us: 1_000_000,
            ..OpenLoop::poisson(1_000.0)
        };
        // Peak at a quarter period, trough at three quarters.
        let peak = ol.rate_at(250_000);
        let trough = ol.rate_at(750_000);
        assert!((peak - 1_500.0).abs() < 1.0, "peak {peak}");
        assert!((trough - 500.0).abs() < 1.0, "trough {trough}");
        assert!((ol.rate_at(0) - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn flash_crowd_window_multiplies_rate_and_redirects() {
        let ol = OpenLoop {
            flash: Some(FlashCrowd {
                start_us: 100,
                end_us: 200,
                rate_multiplier: 4.0,
                hot_fraction: 1.0,
                hot_keys: 8,
            }),
            ..OpenLoop::poisson(500.0)
        };
        assert!((ol.rate_at(150) - 2_000.0).abs() < 1e-9);
        assert!((ol.rate_at(50) - 500.0).abs() < 1e-9);
        let mut r = rng(1);
        let hot = ol.flash_redirect(150, &mut r);
        assert!(hot.is_some_and(|k| k < 8));
        assert!(ol.flash_redirect(250, &mut r).is_none());
    }

    #[test]
    fn tenant_pick_follows_weights() {
        let ol = OpenLoop {
            tenants: vec![
                Tenant {
                    name: "hot",
                    weight: 0.75,
                    priority: 0,
                    mix: None,
                },
                Tenant {
                    name: "batch",
                    weight: 0.25,
                    priority: 2,
                    mix: None,
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
            (0..64)
                .map(|i| ol.next_interarrival_us(i * 100, &mut r))
                .collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(42);
            (0..64)
                .map(|i| ol.next_interarrival_us(i * 100, &mut r))
                .collect()
        };
        assert_eq!(a, b);
    }
}
