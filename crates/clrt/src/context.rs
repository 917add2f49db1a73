//! Contexts: device binding and metered buffer allocation.
//!
//! A [`Context`] owns the association between host program and device, and
//! meters every buffer allocation against the device's global memory — the
//! same bookkeeping the paper uses to verify problem-size footprints
//! ("printing the sum of the size of all memory allocated on the device",
//! §4.4). [`Context::allocated_bytes`] is that sum.
//!
//! A *recording* context ([`Context::recording`]) additionally keeps an
//! ordered tape of [`Command`]s: every allocation and release it meters and
//! every command a queue on it enqueues. That tape is the device-independent
//! part of a run; [`crate::queue::CommandQueue::enqueue_recorded`] prices it
//! on any other device.

use crate::buffer::{AllocGuard, Buffer};
use crate::device::Device;
use crate::error::{Error, Result};
use crate::record::Command;
use crate::scalar::Scalar;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A context's allocation meter and, on a recording context, its tape.
#[derive(Debug, Default)]
pub(crate) struct Meter {
    pub(crate) allocated: AtomicU64,
    /// `Some` on a recording context; the inner `Option` turns `None` when
    /// recording finishes, so a finished tape costs one uncontended lock
    /// per command and grows no further.
    tape: Option<Mutex<Option<Vec<Command>>>>,
}

impl Meter {
    /// Append to the tape while recording; `cmd` is not built otherwise.
    pub(crate) fn record(&self, cmd: impl FnOnce() -> Command) {
        if let Some(tape) = &self.tape {
            if let Some(log) = tape.lock().as_mut() {
                log.push(cmd());
            }
        }
    }

    /// Return `bytes` to the meter (a buffer died, or a recorded release).
    pub(crate) fn release(&self, bytes: u64) {
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
        self.record(|| Command::Free { bytes });
    }
}

/// An OpenCL-style context bound to a single device.
#[derive(Debug, Clone)]
pub struct Context {
    device: Device,
    meter: Arc<Meter>,
}

impl Context {
    /// Create a context on a device.
    pub fn new(device: Device) -> Self {
        Self {
            device,
            meter: Arc::default(),
        }
    }

    /// A context that records what is allocated in it and enqueued on its
    /// queues, until [`Context::finish_recording`].
    pub fn recording(device: Device) -> Self {
        Self {
            device,
            meter: Arc::new(Meter {
                allocated: AtomicU64::new(0),
                tape: Some(Mutex::new(Some(Vec::new()))),
            }),
        }
    }

    /// The commands recorded since the last take, in order; recording
    /// continues. Empty on a context that is not recording.
    pub fn take_recorded(&self) -> Vec<Command> {
        match &self.meter.tape {
            Some(tape) => tape.lock().as_mut().map(std::mem::take).unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// [`Context::take_recorded`], after which nothing more is recorded.
    pub fn finish_recording(&self) -> Vec<Command> {
        match &self.meter.tape {
            Some(tape) => tape.lock().take().unwrap_or_default(),
            None => Vec::new(),
        }
    }

    pub(crate) fn record(&self, cmd: impl FnOnce() -> Command) {
        self.meter.record(cmd);
    }

    /// The bound device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Sum of all live device allocations in bytes — the §4.4 footprint.
    pub fn allocated_bytes(&self) -> u64 {
        self.meter.allocated.load(Ordering::Relaxed)
    }

    /// Same footprint in KiB, the unit of the paper's Eq. 1.
    pub fn allocated_kib(&self) -> f64 {
        self.allocated_bytes() as f64 / 1024.0
    }

    /// Meter `bytes` more: reserve, then ask the backend to admit the
    /// allocation (the default enforces device capacity); back out on
    /// refusal. Live allocations and recorded ones both come through here,
    /// so a recorded allocation sequence is refused on a device exactly
    /// where the live one would be.
    pub(crate) fn admit(&self, bytes: u64) -> Result<()> {
        let prev = self.meter.allocated.fetch_add(bytes, Ordering::Relaxed);
        let backend = crate::backend::default_backend().instance();
        if let Err(e) = backend.preflight_alloc(&self.device, bytes, prev) {
            self.meter.allocated.fetch_sub(bytes, Ordering::Relaxed);
            return Err(e);
        }
        self.meter.record(|| Command::Alloc { bytes });
        Ok(())
    }

    /// Undo one [`Context::admit`] (a recorded release).
    pub(crate) fn release(&self, bytes: u64) {
        self.meter.release(bytes);
    }

    fn guard(&self, bytes: u64) -> Result<AllocGuard> {
        self.admit(bytes)?;
        Ok(AllocGuard {
            meter: Arc::clone(&self.meter),
            bytes,
        })
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn create_buffer<T: Scalar>(&self, len: usize) -> Result<Buffer<T>> {
        if len == 0 {
            return Err(Error::InvalidBufferSize("zero-length buffer".into()));
        }
        let guard = self.guard((len * T::BYTES) as u64)?;
        Ok(Buffer::zeroed(len, guard))
    }

    /// Allocate a buffer initialized from host data (`CL_MEM_COPY_HOST_PTR`).
    pub fn create_buffer_from<T: Scalar>(&self, data: &[T]) -> Result<Buffer<T>> {
        if data.is_empty() {
            return Err(Error::InvalidBufferSize("zero-length buffer".into()));
        }
        let guard = self.guard((data.len() * T::BYTES) as u64)?;
        Ok(Buffer::new_with_guard(data, guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_devsim::catalog::DeviceId;

    #[test]
    fn footprint_meter_tracks_allocations() {
        let ctx = Context::new(Device::native());
        assert_eq!(ctx.allocated_bytes(), 0);
        let a = ctx.create_buffer::<f32>(1024).unwrap();
        assert_eq!(ctx.allocated_bytes(), 4096);
        let b = ctx.create_buffer::<u8>(100).unwrap();
        assert_eq!(ctx.allocated_bytes(), 4196);
        drop(a);
        assert_eq!(ctx.allocated_bytes(), 100);
        drop(b);
        assert_eq!(ctx.allocated_bytes(), 0);
    }

    #[test]
    fn kib_footprint_matches_eq1_style() {
        // kmeans tiny: 256 points × 30 features floats + 256 ints +
        // 5 × 30 floats = 31.5 KiB (§4.4.1).
        let ctx = Context::new(Device::native());
        let _feature = ctx.create_buffer::<f32>(256 * 30).unwrap();
        let _membership = ctx.create_buffer::<i32>(256).unwrap();
        let _cluster = ctx.create_buffer::<f32>(5 * 30).unwrap();
        assert!((ctx.allocated_kib() - 31.5859375).abs() < 1e-9);
    }

    #[test]
    fn capacity_enforced_on_simulated_device() {
        // HD 7970 has 3 GiB; a 4 GiB request must fail cleanly.
        let id = DeviceId::by_name("HD 7970").unwrap();
        let ctx = Context::new(Device::simulated(id));
        // Don't actually allocate 4 GiB of host RAM — allocate a large
        // buffer after filling the meter with a legitimate one.
        let ok = ctx.create_buffer::<u8>(1 << 20).unwrap();
        let err = ctx.create_buffer::<u64>(512 * 1024 * 1024); // 4 GiB
        match err {
            Err(Error::OutOfDeviceMemory {
                requested,
                allocated,
                capacity,
            }) => {
                assert_eq!(requested, 4 << 30);
                assert_eq!(allocated, 1 << 20);
                assert_eq!(capacity, 3 << 30);
            }
            other => panic!("expected OutOfDeviceMemory, got {other:?}"),
        }
        // Meter must have been rolled back.
        assert_eq!(ctx.allocated_bytes(), ok.bytes());
    }

    #[test]
    fn zero_length_rejected() {
        let ctx = Context::new(Device::native());
        assert!(ctx.create_buffer::<f32>(0).is_err());
        assert!(ctx.create_buffer_from::<f32>(&[]).is_err());
    }

    /// A simulated device with `bytes` of global memory.
    fn device_with_memory(bytes: u64) -> Device {
        let mut d = Device::simulated(DeviceId::by_name("GTX 1080").unwrap());
        Arc::get_mut(&mut d.inner).unwrap().global_mem_bytes = bytes;
        d
    }

    /// 300 KiB + 500 KiB, release the first, + 400 KiB (900 KiB live),
    /// then 300 KiB more: past a 1 MiB device.
    fn allocate_past_one_mib(ctx: &Context) -> Result<()> {
        let a = ctx.create_buffer::<u8>(300 << 10)?;
        let _b = ctx.create_buffer::<u8>(500 << 10)?;
        drop(a);
        let _c = ctx.create_buffer::<u8>(400 << 10)?;
        let _d = ctx.create_buffer::<u8>(300 << 10)?;
        Ok(())
    }

    #[test]
    fn recording_context_tapes_allocations_and_releases_in_order() {
        let ctx = Context::recording(Device::native());
        allocate_past_one_mib(&ctx).unwrap();
        use Command::{Alloc, Free};
        assert_eq!(
            ctx.take_recorded(),
            [
                Alloc { bytes: 300 << 10 },
                Alloc { bytes: 500 << 10 },
                Free { bytes: 300 << 10 },
                Alloc { bytes: 400 << 10 },
                Alloc { bytes: 300 << 10 },
                Free { bytes: 300 << 10 },
                Free { bytes: 400 << 10 },
                Free { bytes: 500 << 10 },
            ]
        );
        // A take drains; recording continues until it is finished.
        assert!(ctx.take_recorded().is_empty());
        let _e = ctx.create_buffer::<u8>(8).unwrap();
        assert_eq!(ctx.finish_recording(), [Alloc { bytes: 8 }]);
        let _f = ctx.create_buffer::<u8>(8).unwrap();
        assert!(ctx.take_recorded().is_empty());
        // A plain context records nothing.
        let plain = Context::new(Device::native());
        let _g = plain.create_buffer::<u8>(8).unwrap();
        assert!(plain.take_recorded().is_empty());
    }

    #[test]
    fn recorded_allocations_are_refused_where_live_ones_are() {
        // Recorded where everything fits; its peak is 1.2 MiB.
        let roomy = Context::recording(device_with_memory(8 << 20));
        allocate_past_one_mib(&roomy).unwrap();
        let tape = roomy.finish_recording();

        let live = Context::new(device_with_memory(1 << 20));
        let live_err = allocate_past_one_mib(&live).unwrap_err();
        assert_eq!(
            live_err,
            Error::OutOfDeviceMemory {
                requested: 300 << 10,
                allocated: 900 << 10,
                capacity: 1 << 20,
            }
        );

        let small = Context::new(device_with_memory(1 << 20));
        let queue = crate::queue::CommandQueue::new(&small);
        let priced_err = tape
            .iter()
            .find_map(|cmd| queue.enqueue_recorded(cmd).err())
            .expect("the tape's peak exceeds this device");
        assert_eq!(priced_err, live_err);
        // As live: the refused allocation is rolled back, the rest stands.
        assert_eq!(small.allocated_bytes(), 900 << 10);

        // On a device with room the whole tape prices and nets to zero.
        let big = Context::new(device_with_memory(2 << 20));
        let queue = crate::queue::CommandQueue::new(&big);
        for cmd in &tape {
            queue.enqueue_recorded(cmd).unwrap();
        }
        assert_eq!(big.allocated_bytes(), 0);
    }
}
