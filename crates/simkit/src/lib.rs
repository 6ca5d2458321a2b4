//! # simkit — discrete-event simulation kernel
//!
//! This crate is the temporal substrate for the reproduction of *Wang et al.,
//! "Benchmarking Replication and Consistency Strategies in Cloud Serving
//! Databases: HBase and Cassandra"* (BPOE 2014). The paper ran on a physical
//! 16-machine rack; we substitute a deterministic discrete-event simulation of
//! that rack, calibrated to the paper's hardware (2× Xeon L5640, 32 GB RAM,
//! one HDD, 1 GbE, single rack).
//!
//! The kernel is intentionally small:
//!
//! * [`SimTime`] — virtual time in microseconds.
//! * [`EventQueue`] / [`Sim`] — a binary-heap event queue with a stable
//!   `(time, seq)` tie-break, plus the simulation context (clock + queue +
//!   RNG) that models schedule into, with cancellable timers ([`TimerId`])
//!   for events armed per op that rarely fire.
//! * `slab` — generational slab storage ([`Slab`]/[`OpKey`]) for
//!   in-flight op contexts, replacing `HashMap`-backed per-op state on
//!   dispatch paths.
//! * `resource` — analytic FIFO queueing resources: single-server
//!   ([`FifoResource`]), multi-server ([`MultiServer`], used for CPU cores).
//!   Because events are dispatched in time order, calling
//!   `acquire(now, service)` at the simulated arrival instant yields exact
//!   FIFO queueing behaviour without per-request events.
//! * `hardware` — disk (seek + transfer), NIC (serialization +
//!   propagation) and whole-node models with profiles for the paper's
//!   testbed.
//! * `topology` — cluster/rack layout, regions and their WAN delays, and
//!   inter-node latency.
//! * `rng` — a seedable, platform-stable xoshiro256** RNG implementing
//!   `rand::RngCore`, so every experiment is reproducible bit-for-bit, and
//!   the one [`splitmix64`] mixer every seeded derivation uses.
//! * `hash` — a seeded deterministic FxHash-style hasher
//!   ([`FastHashMap`]) replacing SipHash on hot lookup maps (block cache,
//!   staleness watermarks, file indexes) where iteration order is
//!   unobservable and adversarial keys cannot occur, and the one FNV-1a
//!   ([`fnv1a`], [`fnv_avalanche`]) behind bloom filters, the hashing ring
//!   and key scrambling.
//! * `admission` — the pure admission-control decision kernel
//!   ([`AdmissionConfig`]/[`OpTag`]) both store analogs consult at their
//!   front door for bounded queues and load shedding.
//!
//! Latency and throughput in the reproduced figures *emerge* from contention
//! on these resources; nothing in the upper layers hard-codes a curve.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod hardware;
mod hash;
mod queue;
mod resource;
mod rng;
mod sim;
mod slab;
pub mod time;
mod topology;

pub use admission::{AdmissionConfig, OpTag};
pub use hardware::{Disk, DiskProfile, Nic, NicProfile, NodeHw, NodeProfile};
pub use hash::{fnv1a, fnv_avalanche, FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use queue::EventQueue;
pub use resource::{FifoResource, MultiServer};
pub use rng::{splitmix64, SimRng};
pub use sim::{Sim, TimerId};
pub use slab::{OpKey, Slab};
pub use time::{SimTime, MICROS_PER_SEC};
pub use topology::{GeoConfig, NodeId, Topology, DEFAULT_INTER_REGION_US};
