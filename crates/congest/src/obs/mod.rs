//! `congest::obs` — structured event tracing and profiling.
//!
//! The observability layer of the simulator: a per-session,
//! ring-buffered **event sink** ([`ObsSink`], shared via the cheap
//! clonable [`ObsHandle`]) that the engine and executors feed with
//! structured events — phase begin/end, round boundaries, and (under
//! the faulty executor, [`crate::ExecutorKind::Faulty`]) the full frame
//! lifecycle: send, drop, duplicate, corrupt, retransmit, ack,
//! keepalive, suspicion, crash, partition windows, and the recovery
//! driver's checkpoint/resume stage markers. Attach a sink with
//! [`crate::NetworkConfig::with_obs`]; read it back with
//! [`ObsSink::snapshot`], [`ObsSink::virtual_stream`],
//! [`ObsSink::profile`], or [`export_chrome_trace`].
//!
//! Two contracts hold by construction and are pinned by tests:
//!
//! * **Zero-cost when disabled.** Without a handle in the config, every
//!   hook is a branch on a `None` — no allocation, no clock reads, no
//!   locking. An obs-disabled run's [`crate::MetricsLedger`] and
//!   outputs are byte-identical to a build without the subsystem.
//! * **Deterministic when enabled.** The *virtual* event stream —
//!   everything except wall-clock and profile fields — is a pure
//!   function of the seed, plan, and inputs: byte-identical across
//!   reruns ([`ObsSink::virtual_stream`] is the comparable artifact).
//!   Host timings live only in [`PhaseSummary::wall_ms`] and the
//!   [`Profile`], which the stream never includes.

mod chrome;
mod event;
pub mod json;
mod profile;

pub use chrome::export_chrome_trace;
pub use event::{Event, EventKind, NONE};
pub use profile::{
    cc_begin, cc_end, cc_end_split, total_begin, total_end, CcToken, CostCenter, Profile,
};

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default event-ring capacity: 65,536 events, which bounds a chaos run
/// on a large graph to a few MiB. It does not hold a whole faulty
/// session: the torus24x24 chaos session of `trace_export` records about
/// 5.35M events, so its ring keeps only the last 65,536 (the phase
/// slices survive; almost all transport and recovery instants, the
/// leader kill among them, are overwritten and counted as dropped).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A cheap, clonable handle to a shared [`ObsSink`]. The handle is what
/// rides inside [`crate::NetworkConfig`] (several networks of one
/// session — e.g. the recovery driver's census networks — share one
/// sink); equality is sink *identity*, so configs stay `PartialEq`.
#[derive(Clone, Debug, Default)]
pub struct ObsHandle(Arc<ObsSink>);

impl ObsHandle {
    /// A fresh sink with the [`DEFAULT_CAPACITY`] event ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh sink whose event ring holds `capacity` events (older
    /// events are overwritten first; the overwrite count is reported).
    pub fn with_capacity(capacity: usize) -> Self {
        ObsHandle(Arc::new(ObsSink::with_capacity(capacity)))
    }

    /// The shared sink.
    pub fn sink(&self) -> &ObsSink {
        &self.0
    }
}

impl PartialEq for ObsHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for ObsHandle {
    type Target = ObsSink;
    fn deref(&self) -> &ObsSink {
        &self.0
    }
}

/// One completed (or still-open) phase as the sink saw it. `wall_ms`
/// is the only host-dependent field and is excluded from
/// [`ObsSink::virtual_stream`].
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSummary {
    /// The phase name as passed to [`crate::Network::run`].
    pub name: String,
    /// Virtual rounds the phase consumed (0 while open or errored).
    pub rounds: u64,
    /// Physical ticks the phase consumed (= `rounds` under fault-free
    /// executors).
    pub ticks: u64,
    /// Host wall-clock, milliseconds (0.0 while open or errored).
    pub wall_ms: f64,
}

/// Everything a sink recorded, snapshotted at one instant: interned
/// names, phase records, the retained event ring, the overwrite count,
/// and the profile.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// The interned name table ([`Event::label`] indexes into it).
    pub names: Vec<String>,
    /// Phase records in execution order ([`Event::phase`] indexes into
    /// it).
    pub phases: Vec<PhaseSummary>,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
    /// Events overwritten because the ring was full — never silently:
    /// every exporter surfaces this count.
    pub dropped: u64,
    /// The host-measured profile (cost centers).
    pub profile: Profile,
}

impl ObsReport {
    /// The owning phase's name of `e`, if any.
    pub fn phase_name_of(&self, e: &Event) -> Option<&str> {
        self.phases.get(e.phase as usize).map(|p| p.name.as_str())
    }

    /// The interned label of `e` (its stage name), if any.
    pub fn label_of(&self, e: &Event) -> Option<&str> {
        self.names.get(e.label as usize).map(String::as_str)
    }
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<String>,
    name_idx: BTreeMap<String, u32>,
    phases: Vec<PhaseRec>,
    /// Index of the open phase in `phases`, or `NONE`.
    current: u32,
    events: VecDeque<Event>,
    dropped: u64,
    profile: Profile,
}

#[derive(Debug)]
struct PhaseRec {
    name: u32,
    rounds: u64,
    ticks: u64,
    wall_ms: f64,
}

/// The shared event sink. All mutation goes through `&self` (interior
/// mutability), so the engine, the executors and every network holding
/// a clone of the [`ObsHandle`] feed one sink through shared
/// references. Events are recorded in call order, which a run fixes,
/// so the stream is deterministic.
#[derive(Debug)]
pub struct ObsSink {
    cap: usize,
    inner: Mutex<Inner>,
}

impl Default for ObsSink {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ObsSink {
    fn with_capacity(capacity: usize) -> Self {
        ObsSink {
            cap: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic mid-record cannot corrupt Inner (no invariant spans
        // a push), so recording survives poisoning.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(inner: &mut Inner, cap: usize, e: Event) {
        if inner.events.len() == cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(e);
    }

    fn intern(inner: &mut Inner, name: &str) -> u32 {
        if let Some(&i) = inner.name_idx.get(name) {
            return i;
        }
        let i = inner.names.len() as u32;
        inner.names.push(name.to_string());
        inner.name_idx.insert(name.to_string(), i);
        i
    }

    pub(crate) fn phase_begin(&self, name: &str, base_round: u64) {
        let mut inner = self.lock();
        let name = Self::intern(&mut inner, name);
        let idx = inner.phases.len() as u32;
        inner.phases.push(PhaseRec {
            name,
            rounds: 0,
            ticks: 0,
            wall_ms: 0.0,
        });
        inner.current = idx;
        let e = Event {
            kind: EventKind::PhaseBegin,
            phase: idx,
            label: NONE,
            a: NONE,
            b: NONE,
            round: base_round,
            tick: 0,
        };
        Self::push(&mut inner, self.cap, e);
    }

    pub(crate) fn phase_end(&self, rounds: u64, ticks: u64, wall_ms: f64) {
        let mut inner = self.lock();
        let idx = inner.current;
        let Some(rec) = inner.phases.get_mut(idx as usize) else {
            return; // No open phase (end without begin) — ignore.
        };
        rec.rounds = rounds;
        rec.ticks = ticks;
        rec.wall_ms = wall_ms;
        inner.current = NONE;
        let e = Event {
            kind: EventKind::PhaseEnd,
            phase: idx,
            label: NONE,
            a: NONE,
            b: NONE,
            round: rounds,
            tick: ticks,
        };
        Self::push(&mut inner, self.cap, e);
    }

    /// Records an explicit stage marker (see
    /// [`crate::Network::obs_emit`], which debug-asserts that `name` is
    /// grammar-valid with a registered stem); `value` is free-form (a
    /// count, an epoch, a tree index).
    pub fn emit(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        let label = Self::intern(&mut inner, name);
        let e = Event {
            kind: EventKind::Stage,
            phase: inner.current,
            label,
            a: NONE,
            b: NONE,
            round: value,
            tick: 0,
        };
        Self::push(&mut inner, self.cap, e);
    }

    pub(crate) fn record(&self, kind: EventKind, a: u32, b: u32, round: u64, tick: u64) {
        let mut inner = self.lock();
        let e = Event {
            kind,
            phase: inner.current,
            label: NONE,
            a,
            b,
            round,
            tick,
        };
        Self::push(&mut inner, self.cap, e);
    }

    pub(crate) fn round_end(&self, round: u64, tick: u64) {
        self.record(EventKind::RoundEnd, NONE, NONE, round, tick);
    }

    pub(crate) fn add_cc(&self, center: CostCenter, ns: u64) {
        self.lock().profile.add(center, ns);
    }

    pub(crate) fn add_total(&self, ns: u64) {
        self.lock().profile.total_ns += ns;
    }

    /// Snapshots everything recorded so far.
    pub fn snapshot(&self) -> ObsReport {
        let inner = self.lock();
        ObsReport {
            names: inner.names.clone(),
            phases: inner
                .phases
                .iter()
                .map(|p| PhaseSummary {
                    name: inner.names[p.name as usize].clone(),
                    rounds: p.rounds,
                    ticks: p.ticks,
                    wall_ms: p.wall_ms,
                })
                .collect(),
            events: inner.events.iter().copied().collect(),
            dropped: inner.dropped,
            profile: inner.profile.clone(),
        }
    }

    /// The host-measured profile recorded so far.
    pub fn profile(&self) -> Profile {
        self.lock().profile.clone()
    }

    /// Serializes the **virtual** event stream: phase records (without
    /// wall-clock) followed by every retained event, one line each.
    /// This is the determinism contract's comparable artifact — with a
    /// fixed seed and plan, reruns produce byte-identical streams.
    pub fn virtual_stream(&self) -> String {
        use std::fmt::Write as _;
        let r = self.snapshot();
        let mut out = String::new();
        out.push_str("obs-stream v1\n");
        let _ = writeln!(out, "dropped={}", r.dropped);
        for (i, p) in r.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "phase[{i}] {} rounds={} ticks={}",
                p.name, p.rounds, p.ticks
            );
        }
        let opt = |v: u32| -> String {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for e in &r.events {
            let label = r.label_of(e).unwrap_or("-");
            let _ = writeln!(
                out,
                "event {} phase={} label={} a={} b={} round={} tick={}",
                e.kind.wire_name(),
                opt(e.phase),
                label,
                opt(e.a),
                opt(e.b),
                e.round,
                e.tick
            );
        }
        out
    }

    /// Clears recorded events, phases, and the profile (the sink can be
    /// reused for another run).
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_compare_by_identity() {
        let a = ObsHandle::new();
        let b = a.clone();
        let c = ObsHandle::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn phases_and_events_land_in_order() {
        let h = ObsHandle::new();
        h.phase_begin("mstA.l0.cd", 7);
        h.record(EventKind::FrameSend, 1, 2, 3, 17);
        h.emit("recover.checkpoint", 5);
        h.phase_end(4, 20, 1.5);
        let r = h.snapshot();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "mstA.l0.cd");
        assert_eq!(r.phases[0].rounds, 4);
        assert_eq!(r.phases[0].ticks, 20);
        assert!(r.phases[0].wall_ms > 0.0);
        let kinds: Vec<EventKind> = r.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::PhaseBegin,
                EventKind::FrameSend,
                EventKind::Stage,
                EventKind::PhaseEnd
            ]
        );
        assert_eq!(r.phase_name_of(&r.events[1]), Some("mstA.l0.cd"));
        assert_eq!(r.label_of(&r.events[2]), Some("recover.checkpoint"));
        assert_eq!(r.events[2].round, 5, "stage value rides in `round`");
        assert_eq!(r.events[1].phase, 0);
        assert_eq!(r.events[1].tick, 17);
    }

    #[test]
    fn the_ring_overwrites_oldest_and_counts_drops() {
        let h = ObsHandle::with_capacity(3);
        h.phase_begin("s3", 0);
        for i in 0..5 {
            h.record(EventKind::FrameSend, i, i + 1, 0, i as u64);
        }
        let r = h.snapshot();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.dropped, 3, "phase_begin + two sends overwritten");
        assert_eq!(r.events[0].a, 2, "oldest retained is send #2");
    }

    #[test]
    fn virtual_stream_is_stable_and_wall_free() {
        let build = || {
            let h = ObsHandle::new();
            h.phase_begin("side.flood", 0);
            h.record(EventKind::FrameDrop, 4, 9, 2, 11);
            h.phase_end(3, 12, 123.456); // differing wall must not show
            h.virtual_stream()
        };
        let a = build();
        let h = ObsHandle::new();
        h.phase_begin("side.flood", 0);
        h.record(EventKind::FrameDrop, 4, 9, 2, 11);
        h.phase_end(3, 12, 0.001);
        let b = h.virtual_stream();
        assert_eq!(a, b, "wall-clock leaked into the virtual stream");
        assert!(a.contains("phase[0] side.flood rounds=3 ticks=12"));
        assert!(a.contains("event transport.drop phase=0 label=- a=4 b=9 round=2 tick=11"));
        assert!(!a.contains("123.456"));
    }

    #[test]
    fn clear_resets_everything() {
        let h = ObsHandle::new();
        h.phase_begin("s3", 0);
        h.record(EventKind::Crash, 7, NONE, 1, 2);
        h.add_cc(CostCenter::Execute, 10);
        h.clear();
        let r = h.snapshot();
        assert!(r.phases.is_empty() && r.events.is_empty());
        assert_eq!(r.profile.attributed_ns(), 0);
    }
}
