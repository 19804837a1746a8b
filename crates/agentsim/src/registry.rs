//! The protocol registry: stable wire names for protocols, with
//! per-protocol capability flags, resolved through one path by every
//! surface (CLI, daemon requests, load generator, zoo experiments).
//!
//! This module holds the *generic* machinery — [`ProtocolId`],
//! [`ProtocolCaps`], [`ProtocolEntry`], [`Registry`]. The concrete
//! entries (which protocols exist, what they are called on the wire,
//! what each one can do) live next to the protocol implementations in
//! `qelect::registry`, because the implementations themselves live
//! there; this crate only defines the vocabulary.
//!
//! Design rule: a protocol name is parsed in exactly one place,
//! [`Registry::resolve`]. The CLI, the `/v1/elect` and `/v1/batch`
//! request envelopes, `qelectctl load --protocol`, and `qelectctl zoo`
//! all call it; none of them keeps a private name table. Aliases
//! (e.g. `anon` for `anonymous`) are part of the entry, so they too are
//! declared once.

use crate::gated::{self, GatedAgent, RunReport};
use crate::run::{ElectionRun, Engine, Protocol, RunConfig, RunError};
use crate::sched::Scheduler;
use crate::trace::Trace;
use qelect_graph::Bicolored;
use std::fmt;

/// A registered protocol's stable identity: the wire name under which
/// every surface addresses it. Copyable and comparable, so invocation
/// structs and request envelopes can carry it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolId(&'static str);

impl ProtocolId {
    /// Build an id from a stable wire name (registry entries only).
    pub const fn new(name: &'static str) -> ProtocolId {
        ProtocolId(name)
    }

    /// The stable wire name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// What a registered protocol can do — the flags every surface consults
/// instead of hard-coding per-protocol special cases.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolCaps {
    /// Engines the protocol runs on. Protocols written over
    /// [`MobileCtxAsync`] support both; legacy gated-only drivers
    /// list `[Engine::Gated]`.
    ///
    /// [`MobileCtxAsync`]: crate::MobileCtxAsync
    pub engines: &'static [Engine],
    /// Whether the protocol recovers from crash faults (restarted
    /// incarnations rebuild from whiteboard state alone).
    pub fault_recoverable: bool,
    /// Whether `qelectctl explore` can sweep schedules against a
    /// protocol-appropriate property.
    pub explorable: bool,
    /// Whether `qelectd` accepts the protocol in `/v1/elect` and
    /// `/v1/batch` envelopes.
    pub servable: bool,
    /// The audit report schema the protocol's phase spans feed, if the
    /// audit surface supports it (`None`: not auditable).
    pub audit_schema: Option<&'static str>,
}

/// A canonical-witness generator: builds a protocol's byte-stable
/// committed witness trace on a validated instance, or explains (`Err`)
/// what instance shape the witness needs.
pub type WitnessFn = fn(&Bicolored) -> Result<Trace, String>;

/// How `qelectctl explore` sweeps a protocol's schedule space: the
/// deterministic single-schedule driver plus the property every
/// schedule is checked against. Entries whose `caps.explorable` is set
/// carry one of these; [`ExploreSession`] is built from it.
///
/// Like the rest of the registry this is *vocabulary* — the concrete
/// specs live beside the protocol implementations in `qelect::registry`.
///
/// [`ExploreSession`]: crate::explore::ExploreSession
pub struct ExploreSpec {
    /// Run one schedule: execute the protocol on the instance under the
    /// given scheduler. Must be a pure function of the grant sequence on
    /// both engines ([`Engine::Gated`] and [`Engine::Sim`]).
    pub run: fn(
        &Bicolored,
        &gated::RunConfig,
        Engine,
        &mut dyn Scheduler,
    ) -> Result<RunReport, RunError>,
    /// The schedule-space property: `Err(description)` on a violating
    /// report. The instance is passed so properties can consult ground
    /// truth (e.g. the gcd solvability oracle).
    pub property: fn(&Bicolored, &RunReport) -> Result<(), String>,
    /// One-line human description of the property, for CLI banners.
    pub property_line: &'static str,
    /// Whether violations are the protocol's *expected demonstration*
    /// (the §1.3 impossibility protocols double-elect by design — a
    /// violation is the artifact, not a bug) rather than a defect. This
    /// drives exit codes and whether exploration stops at the first hit.
    pub violation_expected: bool,
    /// Construct the protocol's canonical committed witness trace on a
    /// validated instance, if it has one (the anonymous ring probe's
    /// byte-stable C_n double-election trace). `Err` explains what
    /// instance the witness needs.
    pub canonical_witness: Option<WitnessFn>,
}

impl fmt::Debug for ExploreSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreSpec")
            .field("property_line", &self.property_line)
            .field("violation_expected", &self.violation_expected)
            .field("has_canonical_witness", &self.canonical_witness.is_some())
            .finish_non_exhaustive()
    }
}

/// One registered protocol: identity, capabilities, and the uniform way
/// to run it on an instance.
pub struct ProtocolEntry {
    /// Stable identity (the wire name).
    pub id: ProtocolId,
    /// Alternative names [`Registry::resolve`] accepts (e.g. `anon`).
    pub aliases: &'static [&'static str],
    /// One-line description for listings and docs.
    pub summary: &'static str,
    /// The paper the protocol implements (arXiv id or venue tag).
    pub paper: &'static str,
    /// Capability flags.
    pub caps: ProtocolCaps,
    /// Run the protocol on an instance (engine and knobs from `cfg`).
    /// Called through [`ProtocolEntry::run`], which gates on
    /// `caps.engines` first.
    pub runner: fn(&Bicolored, &RunConfig) -> Result<ElectionRun, RunError>,
    /// Schedule exploration: the deterministic driver + property, when
    /// the protocol is explorable (`None` otherwise — and the CLI's
    /// rejection of `explore --target` for it is typed, not a panic).
    pub explore: Option<&'static ExploreSpec>,
    /// Ground-truth expectation on an instance: `Some(true)` — the
    /// protocol must elect a unique leader; `Some(false)` — it must
    /// report unsolvable; `None` — no oracle (outcome recorded, not
    /// gated).
    pub oracle: fn(&Bicolored) -> Option<bool>,
}

impl fmt::Debug for ProtocolEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolEntry")
            .field("id", &self.id)
            .field("aliases", &self.aliases)
            .field("caps", &self.caps)
            .finish_non_exhaustive()
    }
}

impl ProtocolEntry {
    /// Whether the entry supports `engine`.
    pub fn supports(&self, engine: Engine) -> bool {
        self.caps.engines.contains(&engine)
    }

    /// Run the protocol on `bc` as described by `cfg`, after checking
    /// the engine against the entry's capability flags — an unsupported
    /// engine is a typed [`RunError::UnsupportedEngine`], not a panic.
    pub fn run(&self, bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
        if !self.supports(cfg.engine) {
            return Err(RunError::UnsupportedEngine {
                protocol: self.id.name(),
                engine: cfg.engine.name(),
            });
        }
        (self.runner)(bc, cfg)
    }
}

/// Fresh gated agent programs that each run one clone of `protocol` —
/// the standard way an [`ExploreSpec::run`] driver builds its agents for
/// protocols implementing [`Protocol`].
pub fn protocol_agents<P>(protocol: P, bc: &Bicolored) -> Vec<GatedAgent>
where
    P: Protocol + Clone + Send + 'static,
{
    (0..bc.r())
        .map(|_| -> GatedAgent {
            let p = protocol.clone();
            Box::new(move |ctx| p.run(ctx))
        })
        .collect()
}

/// A fixed table of protocol entries with name/alias resolution.
#[derive(Debug)]
pub struct Registry {
    entries: &'static [ProtocolEntry],
}

impl Registry {
    /// Wrap a static entry table (checked for duplicate names in tests,
    /// not at construction — entries are `const` data).
    pub const fn new(entries: &'static [ProtocolEntry]) -> Registry {
        Registry { entries }
    }

    /// Every entry, in declaration order (the order listings use).
    pub fn entries(&self) -> &'static [ProtocolEntry] {
        self.entries
    }

    /// Look up an entry by its exact [`ProtocolId`].
    pub fn get(&self, id: ProtocolId) -> &'static ProtocolEntry {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .expect("ProtocolId values originate from this registry")
    }

    /// Resolve a user-supplied name (wire name or alias) to its entry.
    /// The error lists every accepted name, so a typo on any surface —
    /// CLI flag or request envelope — produces the same message.
    pub fn resolve(&self, name: &str) -> Result<&'static ProtocolEntry, String> {
        self.entries
            .iter()
            .find(|e| e.id.name() == name || e.aliases.contains(&name))
            .ok_or_else(|| {
                let known: Vec<&str> = self.entries.iter().map(|e| e.id.name()).collect();
                format!(
                    "unknown protocol {name:?} (known protocols: {})",
                    known.join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_id_display_and_eq() {
        let a = ProtocolId::new("elect");
        let b = ProtocolId::new("elect");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "elect");
        assert_ne!(a, ProtocolId::new("cayley"));
    }

    #[test]
    fn empty_registry_resolves_nothing() {
        static EMPTY: Registry = Registry::new(&[]);
        let err = EMPTY.resolve("elect").unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }
}
