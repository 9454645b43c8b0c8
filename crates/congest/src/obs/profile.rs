//! The in-process profiler: tick-loop cost centers of the faulty
//! executor.
//!
//! The replay-exact paths (`sim/`, `dist/`) are forbidden from naming
//! wall-clock types (the `determinism` lint), so all timing flows
//! through the opaque [`CcToken`] and the free functions here:
//! [`cc_begin`] captures a timestamp only when a sink is attached, and
//! the matching `cc_end*` call attributes the elapsed nanoseconds to a
//! [`CostCenter`]. With no sink attached every call is a branch on a
//! `None` — the zero-cost-when-disabled half of the obs contract.
//!
//! Profile numbers are **host measurements**: they are excluded from
//! the deterministic virtual-event stream and exist to answer "where
//! does the wall time go", not to be replayed.

use super::ObsSink;
use std::time::Instant;

/// A named slice of the faulty executor's tick loop (plus the shared
/// boot/finish sweeps). Together the centers cover the loop wall-to-wall;
/// `trace_export` asserts the attributed share stays ≥ 90%.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CostCenter {
    /// The boot sweep: every node's `boot` plus first-frame scheduling.
    Boot,
    /// Arrival processing: draining the tick's calendar slot, checksum
    /// verification, and the seq/cumulative-ack window bookkeeping of
    /// [`crate::sim::FaultyExecutor`]'s stop-and-wait channels.
    AckBookkeeping,
    /// Stepping the nodes whose round inputs are complete (the
    /// algorithm's own `round` code under the synchronizer).
    Execute,
    /// The per-tick visit of every due channel (those marked by state
    /// changes, plus those whose resend timer expires this tick),
    /// deciding what each one transmits and sending it (excluding the
    /// retransmission sends, split out below).
    ChannelScan,
    /// Timeout-driven payload retransmissions — the slice of
    /// [`CostCenter::ChannelScan`] spent re-sending.
    Retransmit,
    /// Keepalive traffic on otherwise-silent channels (failure-detector
    /// liveness gossip).
    SafetyGossip,
    /// The failure detector's silence scan and suspicion bookkeeping.
    Detector,
    /// The finish sweep: per-node `finish` and output collection.
    Finish,
    /// Everything else the loop does per tick: partition-window
    /// scheduling, ordering the tick's arrivals, error wind-down,
    /// completion checks.
    Bookkeeping,
}

impl CostCenter {
    /// Every center, in reporting order.
    pub const ALL: [CostCenter; 9] = [
        CostCenter::Boot,
        CostCenter::AckBookkeeping,
        CostCenter::Execute,
        CostCenter::ChannelScan,
        CostCenter::Retransmit,
        CostCenter::SafetyGossip,
        CostCenter::Detector,
        CostCenter::Finish,
        CostCenter::Bookkeeping,
    ];

    /// The center's stable snake_case report label.
    pub fn label(self) -> &'static str {
        match self {
            CostCenter::Boot => "boot",
            CostCenter::AckBookkeeping => "ack_bookkeeping",
            CostCenter::Execute => "execute",
            CostCenter::ChannelScan => "channel_scan",
            CostCenter::Retransmit => "retransmit",
            CostCenter::SafetyGossip => "safety_gossip",
            CostCenter::Detector => "detector",
            CostCenter::Finish => "finish",
            CostCenter::Bookkeeping => "bookkeeping",
        }
    }

    fn index(self) -> usize {
        CostCenter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every center is listed in ALL")
    }
}

/// The aggregated profile of one sink: cost-center nanoseconds and the
/// total span they are measured against.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    centers: [u64; CostCenter::ALL.len()],
    /// Total nanoseconds of the measured executor spans (the
    /// denominator of [`Profile::coverage`]).
    pub total_ns: u64,
}

impl Profile {
    /// Nanoseconds attributed to `center`.
    pub fn center_ns(&self, center: CostCenter) -> u64 {
        self.centers[center.index()]
    }

    /// Nanoseconds attributed to any named center.
    pub fn attributed_ns(&self) -> u64 {
        self.centers.iter().sum()
    }

    /// The attributed share of the measured total, in `0.0..=1.0`
    /// (1.0 when nothing was measured). The acceptance bar for the
    /// faulty executor is ≥ 0.9.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        (self.attributed_ns() as f64 / self.total_ns as f64).min(1.0)
    }

    pub(crate) fn add(&mut self, center: CostCenter, ns: u64) {
        self.centers[center.index()] += ns;
    }
}

/// An opaque in-flight timing span: a timestamp when a sink is
/// attached, nothing otherwise. Obtained from [`cc_begin`] /
/// [`total_begin`] and consumed by the matching
/// `*_end` call. Deliberately opaque so replay-exact code never names
/// a clock type.
#[derive(Copy, Clone, Debug)]
pub struct CcToken(Option<Instant>);

impl CcToken {
    fn elapsed_ns(self) -> u64 {
        self.0
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }
}

/// Opens a cost-center span (no-op without a sink).
pub fn cc_begin(obs: Option<&ObsSink>) -> CcToken {
    CcToken(obs.map(|_| Instant::now()))
}

/// Closes `token`, attributing its span to `center`; returns the span
/// in nanoseconds (0 without a sink).
pub fn cc_end(obs: Option<&ObsSink>, token: CcToken, center: CostCenter) -> u64 {
    let ns = token.elapsed_ns();
    if let Some(sink) = obs {
        if ns > 0 {
            sink.add_cc(center, ns);
        }
    }
    ns
}

/// Closes `token`, attributing its span **minus** `minus_ns` to
/// `center` — for spans whose interior was already attributed elsewhere
/// (the retransmission slice inside the channel scan). Returns the full
/// span in nanoseconds.
pub fn cc_end_split(
    obs: Option<&ObsSink>,
    token: CcToken,
    center: CostCenter,
    minus_ns: u64,
) -> u64 {
    let ns = token.elapsed_ns();
    if let Some(sink) = obs {
        let own = ns.saturating_sub(minus_ns);
        if own > 0 {
            sink.add_cc(center, own);
        }
    }
    ns
}

/// Opens the whole-run span the centers are measured against.
pub fn total_begin(obs: Option<&ObsSink>) -> CcToken {
    cc_begin(obs)
}

/// Closes the whole-run span opened by [`total_begin`].
pub fn total_end(obs: Option<&ObsSink>, token: CcToken) {
    let ns = token.elapsed_ns();
    if let Some(sink) = obs {
        if ns > 0 {
            sink.add_total(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_ordered_like_all() {
        let mut seen = std::collections::BTreeSet::new();
        for c in CostCenter::ALL {
            assert!(seen.insert(c.label()), "duplicate label {c:?}");
        }
        assert_eq!(CostCenter::Boot.index(), 0);
        assert_eq!(CostCenter::Bookkeeping.index(), CostCenter::ALL.len() - 1);
    }

    #[test]
    fn empty_profile_has_full_coverage() {
        let p = Profile::default();
        assert_eq!(p.attributed_ns(), 0);
        assert_eq!(p.coverage(), 1.0);
    }

    #[test]
    fn coverage_is_the_attributed_share() {
        let mut p = Profile {
            total_ns: 1000,
            ..Profile::default()
        };
        p.add(CostCenter::ChannelScan, 600);
        p.add(CostCenter::Retransmit, 300);
        assert_eq!(p.center_ns(CostCenter::ChannelScan), 600);
        assert_eq!(p.attributed_ns(), 900);
        assert!((p.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tokens_cost_nothing_and_measure_nothing() {
        let t = cc_begin(None);
        assert_eq!(cc_end(None, t, CostCenter::Execute), 0);
        assert_eq!(cc_end_split(None, t, CostCenter::ChannelScan, 5), 0);
        total_end(None, total_begin(None));
    }
}
