//! Shared prediction types for the predictive-scheduling subsystem.
//!
//! `eod-predict` computes these, the serve protocol ships them, and the
//! fleet's predictive placement policy consumes them — so they live here,
//! in the dependency root, as plain serializable data. Runtimes are in
//! microseconds (the device model's natural resolution for one modeled
//! iteration), energies in joules.

use serde::{Deserialize, Serialize};

/// Where the cache-behaviour profile behind a prediction came from, as
/// the cache engine reported it for that query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileProvenance {
    /// The reuse-distance analysis was computed fresh for this query.
    Computed,
    /// A memoized analysis, or counts derived from one earlier, answered.
    Memoized,
    /// No histogram was consulted: the trace was small enough for the
    /// exact cache simulator's memoized fast path.
    Simulated,
}

impl ProfileProvenance {
    /// Display string, also used as a metric label value.
    pub fn label(self) -> &'static str {
        match self {
            ProfileProvenance::Computed => "computed",
            ProfileProvenance::Memoized => "memoized",
            ProfileProvenance::Simulated => "simulated",
        }
    }
}

/// One catalog device's modeled outcome for a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Table 1 device name.
    pub device: String,
    /// Device class label (`CPU`, `Consumer GPU`, `HPC GPU`, `MIC`).
    pub class: String,
    /// Modeled kernel runtime of one iteration, microseconds.
    pub modeled_runtime_us: f64,
    /// Modeled kernel energy of one iteration, joules.
    pub modeled_energy_j: f64,
    /// Energy-delay product (J·s) — the energy-aware ranking key.
    pub edp_j_s: f64,
    /// Confidence in [0, 1]: how decisively one roofline ceiling dominates,
    /// discounted when the tier model and the cache engine disagree about
    /// steady-state residency.
    pub confidence: f64,
    /// Memoization state of the cache profile this prediction leaned on.
    pub cache_profile_provenance: ProfileProvenance,
}

/// Ranked per-device predictions for one spec, cheapest runtime first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionSet {
    /// Content address of the predicted spec ([`crate::spec::JobSpec::spec_key`]).
    pub spec_key: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Problem-size label.
    pub size: String,
    /// One entry per catalog device, ascending modeled runtime.
    pub predictions: Vec<Prediction>,
}

impl PredictionSet {
    /// The fastest-ranked device.
    pub fn best(&self) -> Option<&Prediction> {
        self.predictions.first()
    }

    /// The prediction for a specific catalog device, if present.
    pub fn for_device(&self, name: &str) -> Option<&Prediction> {
        self.predictions.iter().find(|p| p.device == name)
    }
}
