//! Trace assembly and deterministic JSONL export.
//!
//! Serialization is hand-rolled (the build is offline; no serde): every
//! emitted value is an integer, a bool, or a known-safe label, so the
//! JSON subset needed is trivial. Output ordering is fully deterministic —
//! ops ascending by logical id, spans by [`StageSpan::sort_key`] — so the
//! same run always produces byte-identical exports.

use crate::span::StageSpan;
use simkit::SimTime;
use std::fmt::Write as _;
use storage::OpKind;

/// The assembled trace of one sampled logical operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Logical op id (its first attempt's token).
    pub op: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Virtual time the driver issued the first attempt.
    pub issued: SimTime,
    /// Virtual time the op settled back at the client.
    pub settled: SimTime,
    /// Whether the op settled successfully.
    pub ok: bool,
    /// All spans recorded for the op (any attempt), sorted by
    /// [`StageSpan::sort_key`].
    pub spans: Vec<StageSpan>,
}

impl OpTrace {
    /// Measured client latency, µs.
    pub fn latency_us(&self) -> u64 {
        self.settled.saturating_sub(self.issued)
    }
}

/// A full run's sampled traces plus background activity spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Sampled ops, ascending by logical id.
    pub ops: Vec<OpTrace>,
    /// Background spans (cross-region WAL shipments, fire-and-forget repair
    /// writes).
    pub background: Vec<StageSpan>,
}

impl RunTrace {
    /// Render as JSON Lines: one object per sampled op, then one trailing
    /// object holding the background spans.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let _ = write!(
                out,
                "{{\"op\":{},\"kind\":\"{}\",\"issued\":{},\"settled\":{},\"latency_us\":{},\"ok\":{},\"spans\":[",
                op.op,
                op.kind.label(),
                op.issued,
                op.settled,
                op.latency_us(),
                op.ok
            );
            for (i, s) in op.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_span_json(&mut out, s);
            }
            out.push_str("]}\n");
        }
        out.push_str("{\"background\":[");
        for (i, s) in self.background.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_span_json(&mut out, s);
        }
        out.push_str("]}\n");
        out
    }

    /// Total spans across ops and background.
    pub fn span_count(&self) -> usize {
        self.ops.iter().map(|o| o.spans.len()).sum::<usize>() + self.background.len()
    }
}

fn write_span_json(out: &mut String, s: &StageSpan) {
    let _ = write!(
        out,
        "{{\"stage\":\"{}\",\"node\":{},\"start\":{},\"end\":{}}}",
        s.stage, s.node, s.start, s.end
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::span::CLIENT_NODE;
    use crate::stage::Stage;

    fn sample() -> RunTrace {
        RunTrace {
            ops: vec![OpTrace {
                op: 12,
                kind: OpKind::Read,
                issued: 100,
                settled: 160,
                ok: true,
                spans: vec![
                    StageSpan {
                        op: 12,
                        stage: Stage::ClientSend,
                        node: CLIENT_NODE,
                        start: 100,
                        end: 110,
                    },
                    StageSpan {
                        op: 12,
                        stage: Stage::QuorumWait,
                        node: 3,
                        start: 115,
                        end: 150,
                    },
                ],
            }],
            background: vec![StageSpan {
                op: 0,
                stage: Stage::WanHop,
                node: 1,
                start: 0,
                end: 40,
            }],
        }
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let t = sample();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"op\":12,\"kind\":\"READ\","));
        assert!(lines[0].contains("\"latency_us\":60"));
        assert!(
            lines[0].contains("{\"stage\":\"quorum_wait\",\"node\":3,\"start\":115,\"end\":150}")
        );
        assert!(lines[1].starts_with("{\"background\":["));
        assert!(lines[1].contains("wan_hop"));
        // Deterministic: same value renders identically.
        assert_eq!(jsonl, sample().to_jsonl());
    }
}
