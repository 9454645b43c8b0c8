//! Network configuration: bandwidth budget, the round executor, and the
//! optional observability sink.

use crate::executor::ExecutorKind;
use crate::obs::ObsHandle;

/// Configuration of a simulated CONGEST network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Bandwidth multiplier `β`: each directed edge carries at most
    /// `β·⌈log₂ n⌉` bits per round. The model says `O(log n)`; β makes the
    /// constant explicit and sweepable.
    pub bandwidth_factor: usize,
    /// Which round executor drives the phases. Outputs, round counts, and
    /// metrics are identical across executors; only wall time differs.
    pub executor: ExecutorKind,
    /// The observability sink this network records into (`None` — the
    /// default — disables tracing entirely: no events, no clock reads,
    /// no locking; ledger and outputs are byte-identical either way).
    /// Several networks may share one handle — the recovery driver's
    /// census networks do. Handle equality is sink identity.
    pub obs: Option<ObsHandle>,
}

impl Default for NetworkConfig {
    /// β = 8 (room for one tag + two ids + one value per message),
    /// serial executor, no sink.
    fn default() -> Self {
        NetworkConfig {
            bandwidth_factor: 8,
            executor: ExecutorKind::Serial,
            obs: None,
        }
    }
}

impl NetworkConfig {
    /// The default config with a custom bandwidth factor.
    pub fn with_bandwidth_factor(factor: usize) -> Self {
        NetworkConfig {
            bandwidth_factor: factor,
            ..Self::default()
        }
    }

    /// This config with the given round executor.
    pub fn with_executor(self, executor: ExecutorKind) -> Self {
        NetworkConfig { executor, ..self }
    }

    /// This config driven by the fault-injecting executor under `plan`
    /// (shorthand for `with_executor(ExecutorKind::Faulty(plan))`).
    pub fn with_fault_plan(self, plan: crate::sim::FaultPlan) -> Self {
        self.with_executor(ExecutorKind::Faulty(plan))
    }

    /// This config recording into `handle`'s shared sink (see
    /// [`crate::obs`]).
    pub fn with_obs(self, handle: ObsHandle) -> Self {
        NetworkConfig {
            obs: Some(handle),
            ..self
        }
    }

    /// The per-edge budget in bits for an `n`-node network:
    /// `β·max(⌈log₂ n⌉, 8)`.
    ///
    /// The word-size floor of 8 bits keeps the budget meaningful on the tiny
    /// graphs used in tests — the model assumes weights are `poly(n)`, so a
    /// "word" never shrinks below a byte here; for `n ≥ 256` the floor is
    /// inactive and the budget is exactly `β⌈log₂ n⌉`.
    pub fn bandwidth_bits(&self, n: usize) -> usize {
        self.bandwidth_factor * crate::message::id_bits(n).max(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_scales_with_n() {
        let c = NetworkConfig::default();
        assert_eq!(c.bandwidth_bits(1024), 8 * 10);
        assert_eq!(c.bandwidth_bits(1025), 8 * 11);
    }
}
