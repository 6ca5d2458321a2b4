//! Client-centric consistency auditing over recorded operation histories.
//!
//! The driver asserts *server-side* consistency (quorum overlap, per-record
//! watermarks via `ycsb::StalenessTracker`); this crate answers the
//! client's-eye question — "how stale is ONE, really?" — by recording every
//! settled operation as an invocation/response interval
//! ([`OpRecord`]: client, record id, kind, issued, settled, value
//! timestamp, outcome) and replaying the history through pure checkers.
//! A record names its key by YCSB record id (the key is
//! `ycsb::encode_key(id)`), so a history holds no key bytes; the checkers
//! key their maps on `(client, id)` and `(id, ts)`:
//!
//! * [`check_sessions`] — read-your-writes, monotonic-reads,
//!   monotonic-writes, and writes-follow-reads violation counts per
//!   fault-phase window ([`PhaseWindow`]);
//! * [`staleness`] — PBS-style (Δ,p)-staleness: the empirical probability
//!   that a read issued Δ after a write's acknowledgement returns it (or
//!   newer), plus per-read staleness-margin quantiles;
//! * [`check_key`] — a Wing&Gong-style per-key linearizability check:
//!   bounded search, budget-capped, reporting yes / violation /
//!   inconclusive.
//!
//! Determinism is the same design constraint `obs` follows: the
//! [`Recorder`] is pure bookkeeping. It never draws randomness, never
//! schedules events, and never touches simulated resources, so a run with
//! auditing disabled is bit-identical to one without the recording hooks,
//! and every checker is a pure function of the recorded history.
//!
//! Recording happens on the driver's op-settle hot path where a panic
//! would take down a whole sweep worker; unwraps are banned outright,
//! tests included.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod history;
mod linearize;
mod session;
pub mod staleness;

pub use history::{AuditConfig, Fate, History, OpRecord, Recorder, StaleCounts};
pub use linearize::{check_key, key_ops, Action, KeyOp, Verdict};
pub use session::{check_sessions, PhaseWindow, SessionCounts};
