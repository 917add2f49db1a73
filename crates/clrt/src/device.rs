//! Compute devices: the native host CPU and the simulated Table 1 fleet.
//!
//! A [`Device`] is what a context binds to and what a command queue
//! executes on. Every live command — a launch or a transfer — executes on
//! the host and is timed by the host wall clock; what differs is where a
//! device's *reported* times come from:
//!
//! * [`Timing::Wall`] — the native device: kernels run for real across
//!   host threads and the wall-clock event timestamps are the measurement.
//!   This is what the Criterion benches measure.
//! * [`Timing::Modeled`] — a simulated Table 1 device: a run is recorded
//!   live (results must be correct and checkable against each benchmark's
//!   serial reference), and its tape is priced by
//!   [`crate::queue::CommandQueue::enqueue_recorded`] with the `eod-devsim`
//!   timing model for the device, perturbed by its noise model, with
//!   PAPI-style counters synthesized to match. This is the source that
//!   regenerates the paper's figures.
//!
//! The timing source is a per-device property; *how* kernels execute on
//! the host is the queue's one dispatcher, the same for every device.

use eod_devsim::catalog::DeviceId;
use eod_devsim::energy::PowerModel;
use eod_devsim::model::{DeviceModel, KernelCost};
use eod_devsim::noise::NoiseModel;
use eod_devsim::profile::KernelProfile;
use eod_devsim::stackdist::CacheEngine;
use eod_devsim::transfer::TransferModel;
use eod_scibench::counters::CounterValues;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// State of a simulated accelerator.
#[derive(Debug)]
pub struct SimBackend {
    /// Timing model for the Table 1 device.
    pub model: DeviceModel,
    /// Measurement-noise model (CoV ∝ 1/clock).
    pub noise: NoiseModel,
    /// Host-link transfer model.
    pub transfer: TransferModel,
    /// Power model for energy synthesis.
    pub power: PowerModel,
    /// Deterministic noise stream, seeded per device.
    rng: Mutex<StdRng>,
}

impl SimBackend {
    /// Predict a kernel cost with measurement noise applied.
    pub fn noisy_cost(&self, profile: &KernelProfile) -> KernelCost {
        let mut cost = self.model.predict(profile);
        let factor = {
            let mut rng = self.rng.lock();
            self.noise.sample(&mut *rng)
        };
        cost.total_s *= factor;
        cost
    }

    /// Synthesized counters for an invocation, via the stack-distance
    /// cache engine.
    pub fn counters(&self, profile: &KernelProfile, cost: &KernelCost) -> CounterValues {
        self.model
            .synthesize_counters_engine(profile, cost, CacheEngine::StackDistance)
    }

    /// Restart the noise stream from `seed`.
    ///
    /// The stream otherwise advances with every launch on the (shared)
    /// device handle, making a group's samples depend on what ran before
    /// it. Reseeding at a well-defined point — the harness does it per
    /// measurement group, from the group's identity — makes each group's
    /// samples a pure function of its spec, which result caching requires.
    pub fn reseed_noise(&self, seed: u64) {
        *self.rng.lock() = StdRng::seed_from_u64(seed);
    }
}

/// Where a device's event timestamps come from.
#[derive(Debug)]
pub enum Timing {
    /// Real execution on the host, wall-clock timing.
    Wall,
    /// A Table 1 device: recorded commands are priced by its model.
    Modeled(SimBackend),
}

#[derive(Debug)]
pub(crate) struct DeviceInner {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    pub(crate) max_work_group_size: usize,
    pub(crate) global_mem_bytes: u64,
}

/// A compute device handle (cheap to clone).
#[derive(Debug, Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// The native host CPU device.
    pub fn native() -> Self {
        Self {
            inner: Arc::new(DeviceInner {
                name: "Host CPU (native)".to_string(),
                timing: Timing::Wall,
                max_work_group_size: 1024,
                // Host RAM is effectively unbounded for our problem sizes.
                global_mem_bytes: 64 << 30,
            }),
        }
    }

    /// A simulated Table 1 device, with the noise stream seeded from the
    /// device index so runs are reproducible.
    pub fn simulated(id: DeviceId) -> Self {
        Self::simulated_seeded(id, 0xED0D ^ id.0 as u64)
    }

    /// A simulated device with an explicit noise seed (tests and the
    /// harness's `--seed` flag).
    pub fn simulated_seeded(id: DeviceId, seed: u64) -> Self {
        let spec = id.spec();
        Self {
            inner: Arc::new(DeviceInner {
                name: spec.name.to_string(),
                timing: Timing::Modeled(SimBackend {
                    model: DeviceModel::new(id),
                    noise: NoiseModel::for_device(spec),
                    transfer: TransferModel::for_device(spec),
                    power: PowerModel::for_device(spec),
                    rng: Mutex::new(StdRng::seed_from_u64(seed)),
                }),
                max_work_group_size: 1024,
                global_mem_bytes: spec.global_mem_mib * 1024 * 1024,
            }),
        }
    }

    /// Device name (`CL_DEVICE_NAME`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Maximum work-group volume (`CL_DEVICE_MAX_WORK_GROUP_SIZE`).
    pub fn max_work_group_size(&self) -> usize {
        self.inner.max_work_group_size
    }

    /// Global memory capacity in bytes (`CL_DEVICE_GLOBAL_MEM_SIZE`).
    pub fn global_mem_bytes(&self) -> u64 {
        self.inner.global_mem_bytes
    }

    /// The event-timing source.
    pub fn timing(&self) -> &Timing {
        &self.inner.timing
    }

    /// The simulated device's catalog id, if this is a simulated device.
    pub fn sim_id(&self) -> Option<DeviceId> {
        match &self.inner.timing {
            Timing::Modeled(sim) => Some(sim.model.id()),
            Timing::Wall => None,
        }
    }

    /// True for the native host device.
    pub fn is_native(&self) -> bool {
        matches!(self.inner.timing, Timing::Wall)
    }

    /// Restart the simulated noise stream from `seed`; no-op natively.
    /// See [`SimBackend::reseed_noise`].
    pub fn reseed_noise(&self, seed: u64) {
        if let Timing::Modeled(sim) = &self.inner.timing {
            sim.reseed_noise(seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_device_properties() {
        let d = Device::native();
        assert!(d.is_native());
        assert_eq!(d.sim_id(), None);
        assert!(d.max_work_group_size() >= 256);
        assert!(d.global_mem_bytes() > 1 << 30);
    }

    #[test]
    fn simulated_device_wraps_catalog() {
        let id = DeviceId::by_name("GTX 1080").unwrap();
        let d = Device::simulated(id);
        assert_eq!(d.name(), "GTX 1080");
        assert!(!d.is_native());
        assert_eq!(d.sim_id(), Some(id));
        assert_eq!(d.global_mem_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn noisy_cost_is_near_model() {
        let id = DeviceId::by_name("i7-6700K").unwrap();
        let d = Device::simulated_seeded(id, 7);
        let Timing::Modeled(sim) = d.timing() else {
            panic!("expected simulated");
        };
        let mut p = KernelProfile::new("x");
        p.flops = 1e9;
        p.bytes_read = 1e8;
        p.working_set = 1 << 24;
        p.work_items = 1 << 20;
        let base = sim.model.predict(&p).total_s;
        for _ in 0..100 {
            let noisy = sim.noisy_cost(&p).total_s;
            assert!(
                noisy > base * 0.7 && noisy < base * 1.5,
                "{noisy} vs {base}"
            );
        }
    }

    #[test]
    fn seeded_devices_are_reproducible() {
        let id = DeviceId::by_name("K20m").unwrap();
        let mut p = KernelProfile::new("x");
        p.flops = 1e8;
        p.work_items = 1 << 16;
        p.bytes_read = 1e7;
        p.working_set = 1 << 20;
        let sample = |seed| {
            let d = Device::simulated_seeded(id, seed);
            let Timing::Modeled(sim) = d.timing() else {
                unreachable!()
            };
            (0..5)
                .map(|_| sim.noisy_cost(&p).total_s)
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(99), sample(99));
        assert_ne!(sample(99), sample(100));
    }

    #[test]
    fn reseeding_restarts_the_noise_stream() {
        let id = DeviceId::by_name("K20m").unwrap();
        let d = Device::simulated_seeded(id, 1);
        let Timing::Modeled(sim) = d.timing() else {
            unreachable!()
        };
        let mut p = KernelProfile::new("x");
        p.flops = 1e8;
        p.work_items = 1 << 16;
        p.bytes_read = 1e7;
        p.working_set = 1 << 20;
        d.reseed_noise(55);
        let first: Vec<f64> = (0..5).map(|_| sim.noisy_cost(&p).total_s).collect();
        // Advance the stream arbitrarily, then reseed: identical samples.
        let _ = sim.noisy_cost(&p);
        d.reseed_noise(55);
        let second: Vec<f64> = (0..5).map(|_| sim.noisy_cost(&p).total_s).collect();
        assert_eq!(first, second);
        // Native devices accept the call as a no-op.
        Device::native().reseed_noise(1);
    }
}
