//! Round/message/bit metering, per phase and per session.

/// Metrics of one phase (one [`crate::Network::run`] call).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PhaseMetrics {
    /// Phase name (as passed to `run`).
    pub name: String,
    /// Rounds consumed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub bits: u64,
    /// The largest single-message size observed (bits).
    pub max_message_bits: usize,
    /// The largest **cumulative** load placed on a single (edge,
    /// direction) across the whole phase (bits): the congestion measure.
    /// Per round the two coincide with `max_message_bits` (one message
    /// per directed edge per round), but a phase that keeps streaming
    /// over one edge accumulates load here that no single message shows.
    pub max_edge_load_bits: usize,
    /// Transport-layer counters of the faulty executor's α-synchronizer
    /// (all zero under the serial executor).
    pub sim: SimPhaseStats,
}

impl PhaseMetrics {
    /// The physical ticks this phase consumed: its synchronizer ticks
    /// under the faulty executor, one tick per round otherwise. This is
    /// the tick extent the obs layer stamps phase records with (and the
    /// per-phase term of [`MetricsLedger::total_phys_rounds`]).
    pub fn ticks(&self) -> u64 {
        self.sim.phys_rounds.max(self.rounds)
    }
}

/// What the α-synchronizer of the faulty executor
/// ([`crate::ExecutorKind::Faulty`]) did under the hood of one phase:
/// the physical network ticks it spent, the frames it moved, and the
/// faults the adversary injected. The
/// algorithm-level fields of [`PhaseMetrics`] (rounds, messages, bits,
/// edge loads) stay *payload-level* — identical to a fault-free run of
/// the same phase — so these counters are pure overhead accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct SimPhaseStats {
    /// Physical network ticks consumed (`0` under the serial executor;
    /// always ≥ `rounds` under the faulty one — the ratio is the
    /// synchronizer's round-overhead factor).
    pub phys_rounds: u64,
    /// Payload-carrying frame transmissions, retransmissions included.
    pub data_frames: u64,
    /// Pure control frames (acks and safe-round announcements).
    pub ctrl_frames: u64,
    /// Timeout-driven payload retransmissions (transmissions beyond a
    /// payload's first that the resend timer scheduled). Opportunistic
    /// piggybacks of a pending payload on ack frames count in
    /// `data_frames` but not here — a lossless run reports zero.
    pub retransmitted: u64,
    /// Frames the adversary dropped.
    pub dropped: u64,
    /// Frames the adversary duplicated.
    pub duplicated: u64,
    /// Crash suspicions raised by the failure detector (a channel silent
    /// for the plan's full suspicion window). Always 0 under crash-free
    /// plans — the detector only arms when the plan schedules crashes.
    pub suspicions: u64,
    /// Suspicions whose target was in fact alive at the time (ground
    /// truth from the crash schedule). The detector is *eventually
    /// accurate*, not perfect: these are revoked when the suspect's next
    /// frame arrives, but they are counted here.
    pub false_suspicions: u64,
    /// Frames silenced by an active partition window (sent into a cut
    /// edge while the window was open). Always 0 under partition-free
    /// plans.
    pub partitioned: u64,
    /// Frames the receiver rejected because the per-phase transport
    /// checksum did not cover the adversary's bit-flip. Rejected frames
    /// earn no ack and no keepalive credit; retransmission repairs the
    /// loss. Always 0 under corruption-free plans.
    pub corrupted: u64,
}

impl SimPhaseStats {
    /// Folds `other` into `self` (all fields sum).
    pub(crate) fn absorb(&mut self, other: &SimPhaseStats) {
        self.phys_rounds += other.phys_rounds;
        self.data_frames += other.data_frames;
        self.ctrl_frames += other.ctrl_frames;
        self.retransmitted += other.retransmitted;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.suspicions += other.suspicions;
        self.false_suspicions += other.false_suspicions;
        self.partitioned += other.partitioned;
        self.corrupted += other.corrupted;
    }
}

/// Accumulated metrics of a session: one entry per executed phase.
///
/// Wall-clock timings and step counts ride in a *parallel* vector rather
/// than inside [`PhaseMetrics`]: phase metrics derive `Eq` and the
/// parity suites compare them byte-for-byte across executors, which host
/// timings would break, and the executors make different numbers of
/// `round` calls for the same phase. The ledger itself is deliberately
/// not `PartialEq`.
#[derive(Clone, Debug, Default)]
pub struct MetricsLedger {
    phases: Vec<PhaseMetrics>,
    /// What each phase cost the host (`costs.len() == phases.len()`).
    costs: Vec<HostCost>,
}

/// What running one phase cost the host, beside its replay-exact
/// [`PhaseMetrics`].
#[derive(Clone, Copy, Debug)]
struct HostCost {
    /// Wall-clock, milliseconds.
    wall_ms: f64,
    /// [`crate::Algorithm::round`] calls the executor made.
    steps: u64,
}

impl MetricsLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished phase together with its host wall-clock cost in
    /// milliseconds and the number of [`crate::Algorithm::round`] calls
    /// the executor made. Both live outside [`PhaseMetrics`] so the
    /// replay-exact payload metrics stay host- and executor-independent.
    pub fn push_timed(&mut self, m: PhaseMetrics, wall_ms: f64, steps: u64) {
        self.phases.push(m);
        self.costs.push(HostCost { wall_ms, steps });
    }

    /// Appends every phase of `other` in order, wall-clock timings and
    /// step counts included — how drivers that run several networks
    /// merge their ledgers. With `Some(prefix)`, each appended name that
    /// does not already start with `prefix` becomes `{prefix}{name}`, so
    /// phases born with the prefix are never prefixed twice.
    pub fn extend_from(&mut self, other: &MetricsLedger, prefix: Option<&str>) {
        for (p, cost) in other.phases.iter().zip(&other.costs) {
            let mut p = p.clone();
            if let Some(prefix) = prefix.filter(|&pre| !p.name.starts_with(pre)) {
                p.name = format!("{prefix}{}", p.name);
            }
            self.push_timed(p, cost.wall_ms, cost.steps);
        }
    }

    /// All recorded phases in execution order.
    pub fn phases(&self) -> &[PhaseMetrics] {
        &self.phases
    }

    /// Total rounds across phases — the headline complexity measure.
    pub fn total_rounds(&self) -> u64 {
        self.phases.iter().map(|p| p.rounds).sum()
    }

    /// Total messages across phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.messages).sum()
    }

    /// Total bits across phases.
    pub fn total_bits(&self) -> u64 {
        self.phases.iter().map(|p| p.bits).sum()
    }

    /// The largest message observed in any phase.
    pub fn max_message_bits(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.max_message_bits)
            .max()
            .unwrap_or(0)
    }

    /// The heaviest cumulative (edge, direction) load in any phase.
    pub fn max_edge_load_bits(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.max_edge_load_bits)
            .max()
            .unwrap_or(0)
    }

    /// Sums the rounds of phases whose name contains `needle` — used by the
    /// experiment harness to group repeated phases (e.g. every packing
    /// iteration's MST).
    pub fn rounds_matching(&self, needle: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .map(|p| p.rounds)
            .sum()
    }

    /// Sums the messages of phases whose name contains `needle` — the
    /// per-phase traffic accessor the message-volume accounting (bench
    /// rows, CI budget gate) is built on.
    pub fn messages_matching(&self, needle: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .map(|p| p.messages)
            .sum()
    }

    /// Sums the delivered bits of phases whose name contains `needle`.
    pub fn bits_matching(&self, needle: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .map(|p| p.bits)
            .sum()
    }

    /// Counts the phases whose name contains `needle` — the cardinality
    /// companion of [`MetricsLedger::messages_matching`] and
    /// [`MetricsLedger::bits_matching`] (how many `mstA.*` phases ran,
    /// not just what they cost).
    pub fn phases_matching(&self, needle: &str) -> usize {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .count()
    }

    /// Total physical network ticks across phases: a phase simulated by
    /// the faulty executor contributes its transport ticks
    /// (`sim.phys_rounds`), a fault-free phase contributes its `rounds`
    /// (one tick per round). Dividing by [`MetricsLedger::total_rounds`]
    /// yields the session's synchronizer round-overhead factor.
    pub fn total_phys_rounds(&self) -> u64 {
        self.phases.iter().map(PhaseMetrics::ticks).sum()
    }

    /// The session's synchronizer round-overhead factor:
    /// `total_phys_rounds / total_rounds` (1.0 for fault-free sessions
    /// and empty ledgers).
    pub fn sim_overhead_factor(&self) -> f64 {
        let rounds = self.total_rounds();
        if rounds == 0 {
            return 1.0;
        }
        self.total_phys_rounds() as f64 / rounds as f64
    }

    /// Total frames the adversary dropped across phases.
    pub fn total_dropped(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.dropped).sum()
    }

    /// Total payload retransmissions across phases.
    pub fn total_retransmitted(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.retransmitted).sum()
    }

    /// Total frames the adversary duplicated across phases.
    pub fn total_duplicated(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.duplicated).sum()
    }

    /// Total crash suspicions the failure detector raised across phases.
    pub fn total_suspicions(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.suspicions).sum()
    }

    /// Total *false* suspicions (live nodes wrongly suspected, later
    /// rehabilitated) across phases.
    pub fn total_false_suspicions(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.false_suspicions).sum()
    }

    /// Total frames silenced by partition windows across phases.
    pub fn total_partitioned(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.partitioned).sum()
    }

    /// Total frames rejected by the transport checksum across phases.
    pub fn total_corrupted(&self) -> u64 {
        self.phases.iter().map(|p| p.sim.corrupted).sum()
    }

    /// Aggregates the recorded phases by label *stem* — the phase name up
    /// to the first `'.'` (`"mstA.l3.cand"` → `"mstA"`, `"leader_bfs"` →
    /// `"leader_bfs"`) — in order of first appearance. This is the
    /// breakdown perfbench records per stem and the quickest answer to
    /// "where does the traffic go".
    pub fn grouped_by_stem(&self) -> Vec<(String, PhaseGroup)> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: std::collections::BTreeMap<&str, PhaseGroup> =
            std::collections::BTreeMap::new();
        for p in &self.phases {
            let stem = p.name.split('.').next().unwrap_or(&p.name);
            let g = groups.entry(stem).or_insert_with(|| {
                order.push(stem.to_string());
                PhaseGroup::default()
            });
            g.phases += 1;
            g.rounds += p.rounds;
            g.messages += p.messages;
            g.bits += p.bits;
            g.sim.absorb(&p.sim);
        }
        order
            .into_iter()
            .map(|stem| {
                let g = groups[stem.as_str()].clone();
                (stem, g)
            })
            .collect()
    }

    /// Total host wall-clock across phases, milliseconds.
    pub fn total_wall_ms(&self) -> f64 {
        self.costs.iter().map(|c| c.wall_ms).sum()
    }

    /// Total [`crate::Algorithm::round`] calls across phases.
    /// Deterministic for a given executor: the serial one skips waiting
    /// nodes ([`crate::Step::Wait`]), the faulty one calls every live
    /// node every round.
    pub fn total_steps(&self) -> u64 {
        self.costs.iter().map(|c| c.steps).sum()
    }

    /// The costs of the phases whose name *stem* (up to the first `'.'`)
    /// equals `stem`.
    fn costs_of_stem<'a>(&'a self, stem: &'a str) -> impl Iterator<Item = &'a HostCost> + 'a {
        self.phases
            .iter()
            .zip(&self.costs)
            .filter(move |(p, _)| p.name.split('.').next().unwrap_or(&p.name) == stem)
            .map(|(_, c)| c)
    }

    /// Sums the wall-clock milliseconds of the phases whose name *stem*
    /// (up to the first `'.'`) equals `stem` — aligned with the groups of
    /// [`MetricsLedger::grouped_by_stem`], which carry no timings of
    /// their own because [`PhaseGroup`] derives `Eq`.
    pub fn wall_ms_of_stem(&self, stem: &str) -> f64 {
        self.costs_of_stem(stem).map(|c| c.wall_ms).sum()
    }

    /// Sums the [`crate::Algorithm::round`] calls of the phases whose
    /// name stem equals `stem`, like [`MetricsLedger::wall_ms_of_stem`].
    pub fn steps_of_stem(&self, stem: &str) -> u64 {
        self.costs_of_stem(stem).map(|c| c.steps).sum()
    }
}

/// Totals of one phase-label stem (see [`MetricsLedger::grouped_by_stem`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseGroup {
    /// Phases aggregated under this stem.
    pub phases: usize,
    /// Rounds consumed by the stem.
    pub rounds: u64,
    /// Messages delivered by the stem.
    pub messages: u64,
    /// Bits delivered by the stem.
    pub bits: u64,
    /// Summed transport-layer (faulty-executor) counters of the stem —
    /// all zero when the stem ran under a fault-free executor.
    pub sim: SimPhaseStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, rounds: u64, messages: u64, bits: u64) -> PhaseMetrics {
        PhaseMetrics {
            name: name.to_string(),
            rounds,
            messages,
            bits,
            max_message_bits: bits as usize,
            max_edge_load_bits: bits as usize,
            sim: SimPhaseStats::default(),
        }
    }

    #[test]
    fn ledger_totals() {
        let mut l = MetricsLedger::new();
        l.push_timed(phase("a", 10, 100, 1000), 0.0, 7);
        l.push_timed(phase("b", 5, 50, 500), 0.0, 5);
        l.push_timed(phase("a2", 1, 2, 3), 0.0, 1);
        assert_eq!(l.total_rounds(), 16);
        assert_eq!(l.total_messages(), 152);
        assert_eq!(l.total_bits(), 1503);
        assert_eq!(l.max_message_bits(), 1000);
        assert_eq!(l.rounds_matching("a"), 11);
        assert_eq!(l.messages_matching("a"), 102);
        assert_eq!(l.bits_matching("b"), 500);
        assert_eq!(l.phases().len(), 3);
        assert_eq!(l.total_steps(), 13);
    }

    #[test]
    fn grouping_by_stem_preserves_first_appearance_order() {
        let mut l = MetricsLedger::new();
        l.push_timed(phase("leader_bfs", 10, 100, 1000), 0.0, 0);
        l.push_timed(phase("mstA.l0.exch", 1, 20, 200), 0.0, 0);
        l.push_timed(phase("mstA.l0.cand", 2, 30, 300), 0.0, 0);
        l.push_timed(phase("s4a", 4, 5, 50), 0.0, 0);
        l.push_timed(phase("mstA.l1.exch", 1, 10, 100), 0.0, 0);
        let groups = l.grouped_by_stem();
        assert_eq!(
            groups.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["leader_bfs", "mstA", "s4a"]
        );
        let msta = &groups[1].1;
        assert_eq!(
            msta,
            &PhaseGroup {
                phases: 3,
                rounds: 4,
                messages: 60,
                bits: 600,
                sim: SimPhaseStats::default(),
            }
        );
    }

    #[test]
    fn extend_from_keeps_walls_and_prefixes_once() {
        let mut attempt = MetricsLedger::new();
        attempt.push_timed(phase("recover.e1.resume.bfs", 3, 4, 5), 1.5, 9);
        attempt.push_timed(phase("mstA.l0.cd", 2, 3, 4), 2.5, 6);
        let mut merged = MetricsLedger::new();
        merged.extend_from(&attempt, Some("recover.e1."));
        merged.extend_from(&attempt, None);
        let names: Vec<&str> = merged.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "recover.e1.resume.bfs",
                "recover.e1.mstA.l0.cd",
                "recover.e1.resume.bfs",
                "mstA.l0.cd"
            ]
        );
        assert_eq!(merged.total_wall_ms(), 8.0);
        assert_eq!(merged.wall_ms_of_stem("recover"), 5.5);
        assert_eq!(merged.wall_ms_of_stem("mstA"), 2.5);
        assert_eq!(merged.total_rounds(), 10);
        assert_eq!(merged.total_steps(), 30);
        assert_eq!(merged.steps_of_stem("recover"), 24);
        assert_eq!(merged.steps_of_stem("mstA"), 6);
    }

    #[test]
    fn phases_matching_counts_names() {
        let mut l = MetricsLedger::new();
        l.push_timed(phase("mstA.l0.cand", 1, 1, 1), 0.0, 0);
        l.push_timed(phase("mstA.l1.cand", 1, 1, 1), 0.0, 0);
        l.push_timed(phase("s4a", 1, 1, 1), 0.0, 0);
        assert_eq!(l.phases_matching("mstA"), 2);
        assert_eq!(l.phases_matching("cand"), 2);
        assert_eq!(l.phases_matching("s4a"), 1);
        assert_eq!(l.phases_matching("nope"), 0);
    }

    #[test]
    fn sim_counters_aggregate_in_stems_and_totals() {
        let mut faulty = phase("mstA.l0.exch", 10, 5, 50);
        faulty.sim = SimPhaseStats {
            phys_rounds: 40,
            data_frames: 9,
            ctrl_frames: 20,
            retransmitted: 4,
            dropped: 3,
            duplicated: 1,
            suspicions: 2,
            false_suspicions: 1,
            partitioned: 6,
            corrupted: 2,
        };
        let mut l = MetricsLedger::new();
        l.push_timed(faulty, 0.0, 0);
        l.push_timed(phase("mstA.l1.exch", 10, 5, 50), 0.0, 0); // fault-free: sim zeros
        l.push_timed(phase("s4a", 6, 2, 20), 0.0, 0);
        let groups = l.grouped_by_stem();
        let msta = &groups[0].1;
        assert_eq!(msta.sim.phys_rounds, 40);
        assert_eq!(msta.sim.dropped, 3);
        assert_eq!(msta.sim.retransmitted, 4);
        assert_eq!(groups[1].1.sim, SimPhaseStats::default());
        // Fault-free phases contribute one tick per round to the
        // physical total; the simulated one its measured ticks.
        assert_eq!(l.total_phys_rounds(), 40 + 10 + 6);
        assert_eq!(l.total_dropped(), 3);
        assert_eq!(l.total_duplicated(), 1);
        assert_eq!(l.total_retransmitted(), 4);
        assert_eq!(l.total_suspicions(), 2);
        assert_eq!(l.total_false_suspicions(), 1);
        assert_eq!(l.total_partitioned(), 6);
        assert_eq!(l.total_corrupted(), 2);
        let f = l.sim_overhead_factor();
        assert!((f - 56.0 / 26.0).abs() < 1e-9, "factor = {f}");
        assert_eq!(MetricsLedger::new().sim_overhead_factor(), 1.0);
    }
}
