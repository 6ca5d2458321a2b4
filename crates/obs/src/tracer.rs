//! The tracer handle stores embed, and the sampling configuration the
//! driver uses to decide which ops to watch.

use crate::span::{StageSpan, BG_OP};
use crate::stage::Stage;
use simkit::{splitmix64, SimTime};

/// Per-run span sink. Owned by each cluster; the driver enables it,
/// registers the attempt tokens it wants traced, and collects the spans at
/// the end of the run.
///
/// The watch set is a bitset over attempt tokens, one bit per token from 0
/// up to the largest watched one. The driver issues tokens densely from 1,
/// so it stays one bit per attempt of the run (8 KB for 64k attempts), and
/// asking whether a token is watched is one bit test, not a hash probe.
///
/// Determinism contract: every method is pure bookkeeping. No randomness,
/// no event scheduling, no simulated-resource access — so a run with
/// tracing enabled is bit-identical (metrics, counters, event order) to
/// the same run with tracing disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    /// Bit `token % 64` of word `token / 64` is set when `token` is watched.
    watched: Vec<u64>,
    spans: Vec<StageSpan>,
}

impl Tracer {
    /// A disabled tracer (the store default). Recording is a no-op until
    /// [`Tracer::enable`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn span recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// True once [`Tracer::enable`] has been called. Instrumentation sites
    /// with non-trivial span bookkeeping gate on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Register an attempt token as traced. Spans for unwatched tokens are
    /// dropped at the recording site. The bitset grows to cover `token`, so
    /// tokens are meant to be issued densely from 1, as the driver does.
    pub fn watch(&mut self, token: u64) {
        if token == BG_OP {
            return;
        }
        let word = (token / 64) as usize;
        if self.watched.len() <= word {
            self.watched.resize(word + 1, 0);
        }
        self.watched[word] |= 1 << (token % 64);
    }

    /// True when `token`'s bit is set in the watch set.
    #[inline]
    fn watches(&self, token: u64) -> bool {
        self.watched
            .get((token / 64) as usize)
            .is_some_and(|bits| bits >> (token % 64) & 1 == 1)
    }

    /// True when `token` is registered for tracing (and tracing is on).
    #[inline]
    pub fn watching(&self, token: u64) -> bool {
        self.enabled && self.watches(token)
    }

    /// Record that `op` spent `[start, end)` in `stage` on `node`.
    /// No-op unless the tracer is enabled, the token is watched, and the
    /// interval is non-empty. Cost: with tracing off, one branch; with
    /// tracing on, one bit test per call site, plus one push when `op` is
    /// watched.
    #[inline]
    pub fn record(&mut self, op: u64, stage: Stage, node: u32, start: SimTime, end: SimTime) {
        if !self.enabled || end <= start || !self.watches(op) {
            return;
        }
        self.spans.push(StageSpan {
            op,
            stage,
            node,
            start,
            end,
        });
    }

    /// Record a background span (cross-region WAL shipment, fire-and-forget
    /// repair write) that belongs to no client op. Gated only on the enable
    /// bit.
    #[inline]
    pub fn record_bg(&mut self, stage: Stage, node: u32, start: SimTime, end: SimTime) {
        if !self.enabled || end <= start {
            return;
        }
        self.spans.push(StageSpan {
            op: BG_OP,
            stage,
            node,
            start,
            end,
        });
    }

    /// Drain all recorded spans (recording order — deterministic, since the
    /// event loop is).
    pub fn take_spans(&mut self) -> Vec<StageSpan> {
        std::mem::take(&mut self.spans)
    }
}

/// Driver-side trace sampling configuration: trace every Nth logical op,
/// with a seed-derived phase offset so different seeds sample different
/// ops but the same seed always samples the same ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample period: trace one in every `sample_every` logical ops.
    /// `0` disables tracing entirely (the default).
    pub sample_every: u64,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        Self { sample_every: 0 }
    }

    /// Trace one in every `n` logical ops (`0` = off).
    pub fn every(n: u64) -> Self {
        Self { sample_every: n }
    }

    /// Trace every logical op.
    pub fn all() -> Self {
        Self::every(1)
    }

    /// True when any sampling is configured.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Should the logical op with 0-based issue index `index` be traced
    /// under `seed`? Deterministic in `(self, index, seed)`; the sampling
    /// phase is the seed mixed by [`splitmix64`], so neighbouring seeds
    /// trace different ops.
    pub fn samples(&self, index: u64, seed: u64) -> bool {
        match self.sample_every {
            0 => false,
            n => index % n == splitmix64(seed) % n,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.watch(7);
        t.record(7, Stage::ServerCpu, 0, 10, 20);
        t.record_bg(Stage::WanHop, 1, 0, 100);
        assert!(t.spans.is_empty());
        assert!(!t.watching(7));
    }

    #[test]
    fn enabled_tracer_filters_on_watch_set_and_interval() {
        let mut t = Tracer::new();
        t.enable();
        t.watch(7);
        t.record(7, Stage::ServerCpu, 0, 10, 20); // kept
        t.record(8, Stage::ServerCpu, 0, 10, 20); // unwatched
        t.record(7, Stage::ServerCpu, 0, 20, 20); // empty
        t.record(7, Stage::ServerCpu, 0, 20, 10); // inverted
        t.record_bg(Stage::WanHop, 1, 0, 100); // background, unconditional
        assert!(t.watching(7));
        assert!(!t.watching(8));
        let spans = t.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, 7);
        assert_eq!(spans[1].op, BG_OP);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn bg_token_is_never_watched() {
        let mut t = Tracer::new();
        t.enable();
        t.watch(BG_OP);
        assert!(t.watched.is_empty(), "watching BG_OP sets no bit");
        t.watch(2);
        t.watch(BG_OP);
        assert_eq!(t.watched, [0b100]);
        assert!(!t.watching(BG_OP));
        t.record(BG_OP, Stage::ServerCpu, 0, 0, 5);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn the_watch_set_holds_exactly_the_watched_tokens() {
        // Word edges (63 | 64), a second word grown by 65, one token just
        // past it (128, a third word), and one that skips words.
        let watched = [1, 63, 64, 65, 128, 1_000];
        let mut t = Tracer::new();
        for &token in &watched {
            t.watch(token);
        }
        let all = 0..=1_100u64;
        assert!(
            all.clone().all(|token| !t.watching(token)),
            "off until enabled"
        );
        for token in all.clone() {
            t.record(token, Stage::ServerCpu, 0, 10, 20);
        }
        assert!(t.spans.is_empty(), "a disabled tracer drops every span");
        t.enable();
        for token in all.clone() {
            assert_eq!(t.watching(token), watched.contains(&token), "token {token}");
            t.record(token, Stage::ServerCpu, 0, 10, 20);
        }
        assert!(!t.watching(u64::MAX));
        t.record(u64::MAX, Stage::ServerCpu, 0, 10, 20);
        let kept: Vec<u64> = t.take_spans().iter().map(|s| s.op).collect();
        assert_eq!(kept, watched);
    }

    #[test]
    fn sampling_is_deterministic_and_periodic() {
        let cfg = TraceConfig::every(8);
        let hits: Vec<u64> = (0..64).filter(|&i| cfg.samples(i, 42)).collect();
        assert_eq!(hits.len(), 8);
        for w in hits.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
        let again: Vec<u64> = (0..64).filter(|&i| cfg.samples(i, 42)).collect();
        assert_eq!(hits, again);
        assert!(!TraceConfig::off().samples(0, 42));
        assert!(TraceConfig::all().samples(5, 9));
        assert!(!TraceConfig::off().enabled());
        assert!(TraceConfig::all().enabled());
    }
}
