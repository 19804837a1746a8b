//! Replayable execution traces.
//!
//! A run is a deterministic function of `(instance, protocol,
//! seed, grant sequence)`; the grant sequence — which agent the
//! scheduler picked at each tick — is therefore a complete witness of
//! the execution. A [`Trace`] packages that schedule together with the
//! per-primitive event log (what each grant was spent on: a move, a
//! board read, a write with the posted sign kinds, or a wait) and
//! enough instance metadata to detect mismatched replays.
//!
//! Traces serialize to a small hand-rolled JSON dialect (the workspace
//! is offline and carries no serde), so counterexample schedules can be
//! committed under `tests/traces/` and replayed bit-for-bit by
//! [`ReplayScheduler`](crate::sched::ReplayScheduler) in regression
//! tests.

use crate::json;
use crate::sign::SignKind;
use std::fmt;
use std::path::Path;

/// Offset distinguishing [`SignKind::Custom`] codes from built-in kinds.
const CUSTOM_CODE_BASE: u32 = 1000;

/// Stable numeric code of a sign kind, for trace serialization.
pub fn sign_kind_code(kind: SignKind) -> u32 {
    match kind {
        SignKind::HomeBase => 0,
        SignKind::Visited => 1,
        SignKind::Sync => 2,
        SignKind::Match => 3,
        SignKind::VisitDone => 4,
        SignKind::RoundDone => 5,
        SignKind::Acquired => 6,
        SignKind::Leader => 7,
        SignKind::Unsolvable => 8,
        SignKind::Custom(x) => CUSTOM_CODE_BASE + x as u32,
    }
}

/// Inverse of [`sign_kind_code`].
pub fn sign_kind_from_code(code: u32) -> Option<SignKind> {
    Some(match code {
        0 => SignKind::HomeBase,
        1 => SignKind::Visited,
        2 => SignKind::Sync,
        3 => SignKind::Match,
        4 => SignKind::VisitDone,
        5 => SignKind::RoundDone,
        6 => SignKind::Acquired,
        7 => SignKind::Leader,
        8 => SignKind::Unsolvable,
        c if c >= CUSTOM_CODE_BASE && c - CUSTOM_CODE_BASE <= u16::MAX as u32 => {
            SignKind::Custom((c - CUSTOM_CODE_BASE) as u16)
        }
        _ => return None,
    })
}

/// What a granted primitive did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimOp {
    /// An edge traversal.
    Move {
        /// Node departed from.
        from: usize,
        /// Node arrived at.
        to: usize,
    },
    /// A whiteboard read.
    Read {
        /// The node whose board was read.
        node: usize,
    },
    /// An atomic read-modify-write of a whiteboard.
    Write {
        /// The node whose board was accessed.
        node: usize,
        /// [`sign_kind_code`]s of signs the closure posted (empty for a
        /// pure read-modify that added nothing).
        posted: Vec<u32>,
    },
    /// A granted wait re-check.
    Wait {
        /// The node waited at.
        node: usize,
        /// Whether the predicate held (the wait completed).
        woke: bool,
    },
}

/// One granted primitive: who ran at which tick, doing what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The scheduler tick (1-based grant counter) this op was granted at.
    pub tick: u64,
    /// The agent that ran.
    pub agent: usize,
    /// The primitive performed.
    pub op: PrimOp,
}

/// A recorded (or hand-written) execution witness.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Free-form description (e.g. `"c6 lockstep double election"`).
    pub label: String,
    /// The run seed (colors, port scrambles).
    pub seed: u64,
    /// Name of the policy that produced the schedule.
    pub policy: String,
    /// Number of agents in the run.
    pub agents: usize,
    /// Number of nodes in the instance.
    pub nodes: usize,
    /// Agent index granted at each tick — the replayable core.
    pub schedule: Vec<usize>,
    /// Per-primitive events (may be empty for hand-written traces).
    pub events: Vec<TraceEvent>,
}

/// Error parsing or loading a trace.
#[derive(Debug)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// A strict [`ReplayScheduler`](crate::sched::ReplayScheduler) for
    /// this trace (panics on divergence).
    pub fn replayer_strict(&self) -> crate::sched::ReplayScheduler {
        crate::sched::ReplayScheduler::strict(self.schedule.clone())
    }

    /// A lenient replayer: on divergence it falls back to the lowest
    /// ready agent and records the first divergent tick.
    pub fn replayer(&self) -> crate::sched::ReplayScheduler {
        crate::sched::ReplayScheduler::new(self.schedule.clone())
    }

    /// Serialize to the trace JSON dialect.
    ///
    /// Emits both the shared envelope `schema` tag
    /// ([`json::envelope::TRACE`]) and the original `version` field, so
    /// traces written by this build still parse under pre-envelope
    /// readers.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 4 * self.schedule.len());
        out.push_str("{\n");
        out.push_str(&json::envelope::header(json::envelope::TRACE));
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"label\": {},\n", json::escape(&self.label)));
        // Seeds use the full u64 range; JSON numbers only cover 2^53,
        // so the seed travels as a decimal string.
        out.push_str(&format!("  \"seed\": \"{}\",\n", self.seed));
        out.push_str(&format!("  \"policy\": {},\n", json::escape(&self.policy)));
        out.push_str(&format!("  \"agents\": {},\n", self.agents));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        out.push_str("  \"schedule\": [");
        for (i, a) in self.schedule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str("],\n");
        out.push_str("  \"events\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&event_to_json(ev));
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse the trace JSON dialect.
    ///
    /// Accepts both the enveloped form (`"schema": "qelect-trace/1"`)
    /// and the grandfathered legacy form (`"version": 1`, no schema).
    pub fn from_json(text: &str) -> Result<Trace, TraceError> {
        let value = json::parse(text).map_err(TraceError)?;
        let obj = value
            .as_object()
            .ok_or_else(|| bad("top level must be an object"))?;
        json::envelope::check(obj, json::envelope::TRACE).map_err(TraceError)?;
        let label = get_str(obj, "label").unwrap_or_default();
        let seed = match json::get(obj, "seed") {
            Some(json::Value::Str(s)) => s
                .parse::<u64>()
                .map_err(|_| bad("seed must be a decimal u64 string"))?,
            Some(json::Value::Num(n)) => *n as u64,
            _ => 0,
        };
        let policy = get_str(obj, "policy").unwrap_or_default();
        let agents = get_usize(obj, "agents")?;
        let nodes = get_usize(obj, "nodes")?;
        let schedule = match json::get(obj, "schedule") {
            Some(json::Value::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_num()
                        .map(|n| n as usize)
                        .ok_or_else(|| bad("schedule entries must be numbers"))
                })
                .collect::<Result<Vec<usize>, TraceError>>()?,
            _ => return Err(bad("missing 'schedule' array")),
        };
        let mut events = Vec::new();
        if let Some(json::Value::Arr(items)) = json::get(obj, "events") {
            for item in items {
                events.push(event_from_json(item)?);
            }
        }
        Ok(Trace {
            label,
            seed,
            policy,
            agents,
            nodes,
            schedule,
            events,
        })
    }

    /// Write the trace (as JSON) to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path.as_ref(), self.to_json())
            .map_err(|e| bad(format!("writing {}: {e}", path.as_ref().display())))
    }

    /// Load a trace (as JSON) from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| bad(format!("reading {}: {e}", path.as_ref().display())))?;
        Trace::from_json(&text)
    }
}

fn bad(msg: impl Into<String>) -> TraceError {
    TraceError(msg.into())
}

fn get_str(obj: &[(String, json::Value)], key: &str) -> Option<String> {
    match json::get(obj, key) {
        Some(json::Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_usize(obj: &[(String, json::Value)], key: &str) -> Result<usize, TraceError> {
    match json::get(obj, key) {
        Some(json::Value::Num(n)) => Ok(*n as usize),
        _ => Err(bad(format!("missing numeric '{key}'"))),
    }
}

fn event_to_json(ev: &TraceEvent) -> String {
    let head = format!("{{\"tick\":{},\"agent\":{},", ev.tick, ev.agent);
    match &ev.op {
        PrimOp::Move { from, to } => {
            format!("{head}\"op\":\"move\",\"from\":{from},\"to\":{to}}}")
        }
        PrimOp::Read { node } => format!("{head}\"op\":\"read\",\"node\":{node}}}"),
        PrimOp::Write { node, posted } => {
            let codes: Vec<String> = posted.iter().map(|c| c.to_string()).collect();
            format!(
                "{head}\"op\":\"write\",\"node\":{node},\"posted\":[{}]}}",
                codes.join(",")
            )
        }
        PrimOp::Wait { node, woke } => {
            format!("{head}\"op\":\"wait\",\"node\":{node},\"woke\":{woke}}}")
        }
    }
}

fn event_from_json(value: &json::Value) -> Result<TraceEvent, TraceError> {
    let obj = value
        .as_object()
        .ok_or_else(|| bad("event must be an object"))?;
    let tick = get_usize(obj, "tick")? as u64;
    let agent = get_usize(obj, "agent")?;
    let op_name = get_str(obj, "op").ok_or_else(|| bad("event missing 'op'"))?;
    let op = match op_name.as_str() {
        "move" => PrimOp::Move {
            from: get_usize(obj, "from")?,
            to: get_usize(obj, "to")?,
        },
        "read" => PrimOp::Read {
            node: get_usize(obj, "node")?,
        },
        "write" => {
            let posted = match json::get(obj, "posted") {
                Some(json::Value::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_num()
                            .map(|n| n as u32)
                            .ok_or_else(|| bad("posted codes must be numbers"))
                    })
                    .collect::<Result<Vec<u32>, TraceError>>()?,
                _ => Vec::new(),
            };
            PrimOp::Write {
                node: get_usize(obj, "node")?,
                posted,
            }
        }
        "wait" => {
            let woke = matches!(json::get(obj, "woke"), Some(json::Value::Bool(true)));
            PrimOp::Wait {
                node: get_usize(obj, "node")?,
                woke,
            }
        }
        other => return Err(bad(format!("unknown op '{other}'"))),
    };
    Ok(TraceEvent { tick, agent, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            label: "a \"quoted\" label\nwith newline".into(),
            seed: u64::MAX - 3,
            policy: "lockstep".into(),
            agents: 2,
            nodes: 6,
            schedule: vec![0, 1, 0, 1, 1, 0],
            events: vec![
                TraceEvent {
                    tick: 1,
                    agent: 0,
                    op: PrimOp::Read { node: 0 },
                },
                TraceEvent {
                    tick: 2,
                    agent: 1,
                    op: PrimOp::Write {
                        node: 3,
                        posted: vec![sign_kind_code(SignKind::Custom(11))],
                    },
                },
                TraceEvent {
                    tick: 3,
                    agent: 0,
                    op: PrimOp::Move { from: 0, to: 1 },
                },
                TraceEvent {
                    tick: 4,
                    agent: 1,
                    op: PrimOp::Wait {
                        node: 3,
                        woke: false,
                    },
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample();
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, parsed);
    }

    #[test]
    fn sign_codes_roundtrip() {
        for kind in [
            SignKind::HomeBase,
            SignKind::Visited,
            SignKind::Sync,
            SignKind::Match,
            SignKind::VisitDone,
            SignKind::RoundDone,
            SignKind::Acquired,
            SignKind::Leader,
            SignKind::Unsolvable,
            SignKind::Custom(0),
            SignKind::Custom(11),
            SignKind::Custom(u16::MAX),
        ] {
            assert_eq!(sign_kind_from_code(sign_kind_code(kind)), Some(kind));
        }
        assert_eq!(sign_kind_from_code(999), None);
    }

    #[test]
    fn seed_survives_full_u64_range() {
        let t = Trace {
            seed: u64::MAX,
            ..Trace::default()
        };
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed.seed, u64::MAX);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("qelect-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let t = sample();
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_written_minimal_trace_parses() {
        let text = r#"{"version":1,"agents":2,"nodes":6,"schedule":[0,1,0]}"#;
        let t = Trace::from_json(text).unwrap();
        assert_eq!(t.schedule, vec![0, 1, 0]);
        assert_eq!(t.agents, 2);
        assert!(t.events.is_empty());
        assert_eq!(t.seed, 0);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(Trace::from_json("{").is_err());
        assert!(Trace::from_json("[]").is_err());
        assert!(
            Trace::from_json(r#"{"version":1,"agents":2,"nodes":3}"#).is_err(),
            "missing schedule"
        );
        assert!(
            Trace::from_json(r#"{"version":1,"agents":2,"nodes":3,"schedule":["x"]}"#).is_err()
        );
    }

    #[test]
    fn envelope_schema_emitted_and_enforced() {
        let t = sample();
        assert!(t.to_json().contains("\"schema\": \"qelect-trace/1\""));
        // Neither a schema tag nor the legacy version marker: rejected.
        assert!(Trace::from_json(r#"{"agents":2,"nodes":3,"schedule":[0]}"#).is_err());
        // A foreign schema is rejected even with a valid body.
        assert!(Trace::from_json(
            r#"{"schema":"qelect-sweep/1","agents":2,"nodes":3,"schedule":[0]}"#
        )
        .is_err());
    }
}
