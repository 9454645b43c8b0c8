//! The structured event model: event kinds, the packed per-event
//! record, and the wire names each kind serializes under.
//!
//! Events are deliberately flat and `Copy`: two `u32` participant
//! slots, a virtual round, a physical tick, and two interned-string
//! indices (the owning phase and, for [`EventKind::Stage`] events, the
//! emitted stage name). Everything a determinism test compares lives
//! here — wall-clock never does (it rides in
//! [`PhaseSummary`](super::PhaseSummary) records instead).

/// Sentinel for "no value" in the packed `u32` fields of [`Event`]
/// (no owning phase, no interned label, no participant node).
pub const NONE: u32 = u32::MAX;

/// What one recorded event was.
///
/// The frame-lifecycle kinds (`Frame*`, `Keepalive`, `Suspect`,
/// `Clear`, `Crash`, `Partition*`) are emitted only by the
/// fault-injecting executor ([`crate::ExecutorKind::Faulty`]); the
/// phase/round kinds by every executor; [`EventKind::Stage`] by
/// explicit [`crate::Network::obs_emit`] calls (the recovery driver's
/// checkpoint/resume/census markers).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase started (`a`/`b` unused; `round` = the session's virtual
    /// rounds consumed before this phase).
    PhaseBegin,
    /// A phase completed (`round` = its virtual rounds, `tick` = its
    /// physical ticks).
    PhaseEnd,
    /// The first node reached virtual round `round` (`tick` = the
    /// physical tick under the faulty executor, else the round itself).
    RoundEnd,
    /// A data frame was put on the wire from node `a` to node `b`
    /// (first transmission of its payload).
    FrameSend,
    /// A timeout-driven retransmission of a pending payload, `a` → `b`.
    FrameRetransmit,
    /// The adversary dropped the frame `a` → `b`.
    FrameDrop,
    /// The adversary duplicated the frame `a` → `b`.
    FrameDup,
    /// The receiver `b` rejected a frame from `a` whose checksum did
    /// not cover the adversary's bit-flip.
    FrameCorrupt,
    /// Node `a` consumed an acknowledgement from node `b`.
    FrameAck,
    /// Node `a` sent a keepalive to node `b` (failure-detector liveness
    /// traffic on an otherwise silent channel).
    Keepalive,
    /// Node `a` began suspecting node `b` of having crashed.
    Suspect,
    /// Node `a` rehabilitated node `b` (a frame arrived from a
    /// suspect — the suspicion was false).
    Clear,
    /// Node `a` crashed (adversary schedule).
    Crash,
    /// A partition window opened, silencing the directed channel
    /// `a` → `b`.
    PartitionOpen,
    /// The partition window over `a` → `b` healed.
    PartitionHeal,
    /// An explicit stage marker from [`crate::Network::obs_emit`]:
    /// `label` names it, `round` carries its value.
    Stage,
}

impl EventKind {
    /// Every kind, in wire order (the order `virtual_stream` documents).
    pub const ALL: [EventKind; 16] = [
        EventKind::PhaseBegin,
        EventKind::PhaseEnd,
        EventKind::RoundEnd,
        EventKind::FrameSend,
        EventKind::FrameRetransmit,
        EventKind::FrameDrop,
        EventKind::FrameDup,
        EventKind::FrameCorrupt,
        EventKind::FrameAck,
        EventKind::Keepalive,
        EventKind::Suspect,
        EventKind::Clear,
        EventKind::Crash,
        EventKind::PartitionOpen,
        EventKind::PartitionHeal,
        EventKind::Stage,
    ];

    /// The kind's wire name. Transport-lifecycle kinds are dotted
    /// `transport.*` names under the registered `transport` stem (a
    /// unit test pins every dotted name here to
    /// [`crate::phase::is_registered`]); the phase/round/stage kinds
    /// are bare grammar-valid segments.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::PhaseBegin => "phase_begin",
            EventKind::PhaseEnd => "phase_end",
            EventKind::RoundEnd => "round_end",
            EventKind::FrameSend => "transport.send",
            EventKind::FrameRetransmit => "transport.retransmit",
            EventKind::FrameDrop => "transport.drop",
            EventKind::FrameDup => "transport.dup",
            EventKind::FrameCorrupt => "transport.corrupt",
            EventKind::FrameAck => "transport.ack",
            EventKind::Keepalive => "transport.keepalive",
            EventKind::Suspect => "transport.suspect",
            EventKind::Clear => "transport.clear",
            EventKind::Crash => "transport.crash",
            EventKind::PartitionOpen => "transport.part_open",
            EventKind::PartitionHeal => "transport.part_heal",
            EventKind::Stage => "stage",
        }
    }

    /// Is this a frame-lifecycle / failure-detector kind (rendered on
    /// the dedicated transport track of the Chrome exporter)?
    pub fn is_transport(self) -> bool {
        !matches!(
            self,
            EventKind::PhaseBegin | EventKind::PhaseEnd | EventKind::RoundEnd | EventKind::Stage
        )
    }
}

/// One recorded event. All fields are virtual (schedule- and
/// host-independent): a fixed seed reproduces the exact event sequence
/// byte for byte — see `ObsSink::virtual_stream`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Index of the owning phase record (into the sink's phase list),
    /// or [`NONE`] outside any phase.
    pub phase: u32,
    /// Interned stage-name index ([`EventKind::Stage`] only, else
    /// [`NONE`]).
    pub label: u32,
    /// Primary participant node (see the [`EventKind`] docs), or
    /// [`NONE`].
    pub a: u32,
    /// Secondary participant node (the peer), or [`NONE`].
    pub b: u32,
    /// Virtual round — for [`EventKind::Stage`], the emitted value.
    pub round: u64,
    /// Physical tick of the faulty executor's synchronizer (equal to
    /// `round` under the serial executor).
    pub tick: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every dotted wire name must resolve against the phase registry
    /// (so transport events aggregate under a registered stem), and
    /// every bare one must at least parse under the grammar.
    #[test]
    fn wire_names_resolve_against_the_phase_registry() {
        for kind in EventKind::ALL {
            let name = kind.wire_name();
            assert!(
                crate::phase::is_valid_name(name),
                "{name} must parse under the phase-name grammar"
            );
            if name.contains('.') {
                assert!(
                    crate::phase::is_registered(name),
                    "{name} must carry a registered stem"
                );
            }
            assert_eq!(name.contains('.'), kind.is_transport());
        }
    }

    #[test]
    fn wire_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in EventKind::ALL {
            assert!(seen.insert(kind.wire_name()), "duplicate {kind:?}");
        }
        assert_eq!(seen.len(), EventKind::ALL.len());
    }
}
