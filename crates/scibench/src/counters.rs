//! PAPI-style hardware performance counters.
//!
//! §4.3 of the paper lists the counters collected alongside every timing:
//! total instructions and IPC, L1/L2 data-cache misses, L3 total cache
//! events (request rate, miss rate, miss ratio), data-TLB miss rate, and
//! branch instructions / mispredictions. PAPI names them `PAPI_TOT_INS`,
//! `PAPI_L1_DCM`, `PAPI_L2_DCM`, `PAPI_L3_TCM`, `PAPI_TLB_DM`,
//! `PAPI_BR_INS`, `PAPI_BR_MSP`, …
//!
//! This module defines that vocabulary and a [`CounterValues`] record. The
//! values themselves are synthesized by `eod-devsim`'s cache/TLB simulation
//! and kernel models — this crate deliberately knows nothing about where the
//! numbers come from, just as LibSciBench treats PAPI as an opaque source.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// The hardware events the paper collects, named after their PAPI presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HwCounter {
    /// `PAPI_TOT_INS` — total instructions completed.
    TotalInstructions,
    /// `PAPI_TOT_CYC` — total cycles (needed to report IPC).
    TotalCycles,
    /// `PAPI_L1_DCM` — level-1 data cache misses.
    L1DataCacheMisses,
    /// `PAPI_L2_DCM` — level-2 data cache misses.
    L2DataCacheMisses,
    /// `PAPI_L3_TCA` — level-3 total cache accesses (requests).
    L3TotalCacheAccesses,
    /// `PAPI_L3_TCM` — level-3 total cache misses.
    L3TotalCacheMisses,
    /// `PAPI_TLB_DM` — data TLB misses.
    DataTlbMisses,
    /// `PAPI_BR_INS` — branch instructions.
    BranchInstructions,
    /// `PAPI_BR_MSP` — mispredicted branches.
    BranchMispredictions,
    /// `PAPI_FP_OPS` — floating-point operations.
    FloatingPointOps,
    /// `PAPI_LST_INS` — load/store instructions.
    LoadStoreInstructions,
}

impl HwCounter {
    /// Number of events: one past the last declared variant.
    const COUNT: usize = HwCounter::LoadStoreInstructions as usize + 1;

    /// The PAPI preset string for this event.
    pub fn papi_name(self) -> &'static str {
        match self {
            HwCounter::TotalInstructions => "PAPI_TOT_INS",
            HwCounter::TotalCycles => "PAPI_TOT_CYC",
            HwCounter::L1DataCacheMisses => "PAPI_L1_DCM",
            HwCounter::L2DataCacheMisses => "PAPI_L2_DCM",
            HwCounter::L3TotalCacheAccesses => "PAPI_L3_TCA",
            HwCounter::L3TotalCacheMisses => "PAPI_L3_TCM",
            HwCounter::DataTlbMisses => "PAPI_TLB_DM",
            HwCounter::BranchInstructions => "PAPI_BR_INS",
            HwCounter::BranchMispredictions => "PAPI_BR_MSP",
            HwCounter::FloatingPointOps => "PAPI_FP_OPS",
            HwCounter::LoadStoreInstructions => "PAPI_LST_INS",
        }
    }

    /// Every counter the paper's methodology collects.
    pub fn all() -> &'static [HwCounter] {
        &[
            HwCounter::TotalInstructions,
            HwCounter::TotalCycles,
            HwCounter::L1DataCacheMisses,
            HwCounter::L2DataCacheMisses,
            HwCounter::L3TotalCacheAccesses,
            HwCounter::L3TotalCacheMisses,
            HwCounter::DataTlbMisses,
            HwCounter::BranchInstructions,
            HwCounter::BranchMispredictions,
            HwCounter::FloatingPointOps,
            HwCounter::LoadStoreInstructions,
        ]
    }
}

impl fmt::Display for HwCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.papi_name())
    }
}

/// Which events a measurement session asks for, mirroring PAPI event sets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSet {
    events: Vec<HwCounter>,
}

impl CounterSet {
    /// An empty set (timing only).
    pub fn none() -> Self {
        Self::default()
    }

    /// The full set used by the paper.
    pub fn paper() -> Self {
        Self {
            events: HwCounter::all().to_vec(),
        }
    }

    /// Build a set from explicit events; duplicates are dropped, order kept.
    pub fn of(events: &[HwCounter]) -> Self {
        let mut set = Self::default();
        for &e in events {
            set.add(e);
        }
        set
    }

    /// Add one event (no-op if already present).
    pub fn add(&mut self, e: HwCounter) {
        if !self.events.contains(&e) {
            self.events.push(e);
        }
    }

    /// Events in this set.
    pub fn events(&self) -> &[HwCounter] {
        &self.events
    }

    /// Does the set contain `e`?
    pub fn contains(&self, e: HwCounter) -> bool {
        self.events.contains(&e)
    }
}

/// One sample of counter readings for a measured region: one slot per
/// [`HwCounter`], indexed by declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterValues {
    values: [Option<u64>; HwCounter::COUNT],
}

impl CounterValues {
    /// Empty reading.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a value, overwriting any previous reading of the same event.
    pub fn set(&mut self, e: HwCounter, v: u64) {
        self.values[e as usize] = Some(v);
    }

    /// Read a value; `None` if the event was not collected.
    pub fn get(&self, e: HwCounter) -> Option<u64> {
        self.values[e as usize]
    }

    /// Accumulate another reading into this one (for summing across kernels,
    /// as the paper sums all compute time/events on the accelerator).
    pub fn accumulate(&mut self, other: &CounterValues) {
        for (mine, theirs) in self.values.iter_mut().zip(other.values) {
            if let Some(v) = theirs {
                *mine = Some(mine.unwrap_or(0) + v);
            }
        }
    }

    /// Instructions per cycle, if both inputs were collected.
    pub fn ipc(&self) -> Option<f64> {
        let ins = self.get(HwCounter::TotalInstructions)? as f64;
        let cyc = self.get(HwCounter::TotalCycles)? as f64;
        if cyc == 0.0 {
            return None;
        }
        Some(ins / cyc)
    }

    /// §4.4: miss *rates* are reported as misses / total instructions.
    pub fn miss_rate(&self, miss_event: HwCounter) -> Option<f64> {
        let misses = self.get(miss_event)? as f64;
        let ins = self.get(HwCounter::TotalInstructions)? as f64;
        if ins == 0.0 {
            return None;
        }
        Some(misses / ins)
    }

    /// §4.3: L3 request rate = requests / instructions.
    pub fn l3_request_rate(&self) -> Option<f64> {
        self.miss_rate(HwCounter::L3TotalCacheAccesses)
    }

    /// §4.3: L3 miss ratio = misses / requests.
    pub fn l3_miss_ratio(&self) -> Option<f64> {
        let misses = self.get(HwCounter::L3TotalCacheMisses)? as f64;
        let reqs = self.get(HwCounter::L3TotalCacheAccesses)? as f64;
        if reqs == 0.0 {
            return None;
        }
        Some(misses / reqs)
    }

    /// Branch misprediction ratio = mispredicted / branch instructions.
    pub fn branch_miss_ratio(&self) -> Option<f64> {
        let msp = self.get(HwCounter::BranchMispredictions)? as f64;
        let br = self.get(HwCounter::BranchInstructions)? as f64;
        if br == 0.0 {
            return None;
        }
        Some(msp / br)
    }

    /// Iterate over collected (event, value) pairs in [`HwCounter`]
    /// declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (HwCounter, u64)> + '_ {
        HwCounter::all()
            .iter()
            .zip(self.values)
            .filter_map(|(&e, v)| Some((e, v?)))
    }
}

/// Wire form `{"values":{"TotalInstructions":…}}`: collected events only,
/// in declaration order — what the `BTreeMap`-backed derive produced, so
/// recorded results, the serve cache and fleet messages read unchanged.
impl Serialize for CounterValues {
    fn to_value(&self) -> Value {
        let values = self
            .iter()
            .map(|(e, v)| {
                let Value::Str(name) = e.to_value() else {
                    unreachable!("unit variants serialize as their name");
                };
                (name, Value::U64(v))
            })
            .collect();
        Value::Map(vec![("values".to_string(), Value::Map(values))])
    }
}

impl Deserialize for CounterValues {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Map(entries) = v.get_field("values") else {
            return Err(DeError::msg("CounterValues: `values` must be an object"));
        };
        let mut out = CounterValues::new();
        for (name, value) in entries {
            let event = HwCounter::from_value(&Value::Str(name.clone()))?;
            out.set(event, u64::from_value(value)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papi_names_are_unique() {
        let mut names: Vec<_> = HwCounter::all().iter().map(|c| c.papi_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), HwCounter::all().len());
    }

    #[test]
    fn counter_set_dedups() {
        let mut s = CounterSet::none();
        s.add(HwCounter::TotalInstructions);
        s.add(HwCounter::TotalInstructions);
        assert_eq!(s.events().len(), 1);
        assert!(s.contains(HwCounter::TotalInstructions));
        assert!(!s.contains(HwCounter::L1DataCacheMisses));
    }

    #[test]
    fn paper_set_is_complete() {
        let s = CounterSet::paper();
        for &e in HwCounter::all() {
            assert!(s.contains(e), "{e} missing from paper set");
        }
    }

    #[test]
    fn ipc_and_ratios() {
        let mut v = CounterValues::new();
        v.set(HwCounter::TotalInstructions, 1000);
        v.set(HwCounter::TotalCycles, 500);
        v.set(HwCounter::L1DataCacheMisses, 10);
        v.set(HwCounter::L3TotalCacheAccesses, 40);
        v.set(HwCounter::L3TotalCacheMisses, 8);
        v.set(HwCounter::BranchInstructions, 100);
        v.set(HwCounter::BranchMispredictions, 5);
        assert_eq!(v.ipc(), Some(2.0));
        assert_eq!(v.miss_rate(HwCounter::L1DataCacheMisses), Some(0.01));
        assert_eq!(v.l3_request_rate(), Some(0.04));
        assert_eq!(v.l3_miss_ratio(), Some(0.2));
        assert_eq!(v.branch_miss_ratio(), Some(0.05));
    }

    #[test]
    fn missing_events_give_none() {
        let v = CounterValues::new();
        assert_eq!(v.ipc(), None);
        assert_eq!(v.l3_miss_ratio(), None);
    }

    #[test]
    fn zero_denominators_give_none() {
        let mut v = CounterValues::new();
        v.set(HwCounter::TotalInstructions, 0);
        v.set(HwCounter::L1DataCacheMisses, 3);
        v.set(HwCounter::TotalCycles, 0);
        assert_eq!(v.miss_rate(HwCounter::L1DataCacheMisses), None);
        assert_eq!(v.ipc(), None);
    }

    #[test]
    fn accumulate_sums_per_event() {
        let mut a = CounterValues::new();
        a.set(HwCounter::TotalInstructions, 10);
        let mut b = CounterValues::new();
        b.set(HwCounter::TotalInstructions, 32);
        b.set(HwCounter::BranchInstructions, 4);
        a.accumulate(&b);
        assert_eq!(a.get(HwCounter::TotalInstructions), Some(42), "overlap");
        assert_eq!(a.get(HwCounter::BranchInstructions), Some(4), "disjoint");
        assert_eq!(a.get(HwCounter::TotalCycles), None, "in neither");

        let before = a.clone();
        a.accumulate(&CounterValues::new());
        assert_eq!(a, before, "an empty reading adds nothing");
        let mut empty = CounterValues::new();
        empty.accumulate(&before);
        assert_eq!(empty, before, "accumulating into empty copies");

        // A collected zero is a reading, not an absence.
        let mut zero = CounterValues::new();
        zero.set(HwCounter::DataTlbMisses, 0);
        let mut c = CounterValues::new();
        c.accumulate(&zero);
        assert_eq!(c.get(HwCounter::DataTlbMisses), Some(0));
    }

    #[test]
    fn slots_follow_declaration_order() {
        assert_eq!(HwCounter::all().len(), HwCounter::COUNT);
        for (i, &e) in HwCounter::all().iter().enumerate() {
            assert_eq!(e as usize, i, "{e:?}");
        }
        // Set in reverse; iteration is still `HwCounter::all()` order.
        let mut v = CounterValues::new();
        for (i, &e) in HwCounter::all().iter().enumerate().rev() {
            v.set(e, i as u64);
        }
        let events: Vec<HwCounter> = v.iter().map(|(e, _)| e).collect();
        assert_eq!(events, HwCounter::all());
        assert!(v.iter().all(|(e, n)| n == e as u64));
    }

    /// The wire form of the `BTreeMap<HwCounter, u64>`-backed derive, which
    /// recorded results, the serve cache and fleet messages carry.
    const FULL_JSON: &str = "{\"values\":{\"TotalInstructions\":13780,\"TotalCycles\":26081,\
        \"L1DataCacheMisses\":0,\"L2DataCacheMisses\":1,\"L3TotalCacheAccesses\":2,\
        \"L3TotalCacheMisses\":3,\"DataTlbMisses\":4,\"BranchInstructions\":960,\
        \"BranchMispredictions\":5,\"FloatingPointOps\":6,\"LoadStoreInstructions\":820}}";
    const PARTIAL_JSON: &str =
        "{\"values\":{\"TotalCycles\":18446744073709551615,\"DataTlbMisses\":0}}";

    #[test]
    fn wire_form_is_the_btreemap_form() {
        let mut full = CounterValues::new();
        for (&e, v) in HwCounter::all()
            .iter()
            .zip([13780, 26081, 0, 1, 2, 3, 4, 960, 5, 6, 820])
        {
            full.set(e, v);
        }
        let mut partial = CounterValues::new();
        partial.set(HwCounter::DataTlbMisses, 0);
        partial.set(HwCounter::TotalCycles, u64::MAX);
        for (reading, json) in [
            (full, FULL_JSON),
            (partial, PARTIAL_JSON),
            (CounterValues::new(), "{\"values\":{}}"),
        ] {
            assert_eq!(serde_json::to_string(&reading).unwrap(), json);
            let back: CounterValues = serde_json::from_str(json).unwrap();
            assert_eq!(back, reading);
        }
    }

    #[test]
    fn malformed_wire_forms_are_errors() {
        for bad in [
            "{}",
            "{\"values\":[]}",
            "{\"values\":{\"NoSuchCounter\":1}}",
            "{\"values\":{\"TotalCycles\":-1}}",
        ] {
            assert!(serde_json::from_str::<CounterValues>(bad).is_err(), "{bad}");
        }
    }
}
