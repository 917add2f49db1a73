//! In-order command queues.
//!
//! A [`CommandQueue`] executes commands synchronously in submission order
//! (OpenCL's default in-order semantics — the only mode the OpenDwarfs
//! benchmarks use) and, when profiling is enabled, returns an [`Event`] per
//! command with `QUEUED`/`SUBMIT`/`START`/`END` timestamps on the queue's
//! clock.
//!
//! How a launch executes is the queue's [`crate::backend::Backend`]
//! (snapshotted from the process-wide default at queue creation): the
//! native backend schedules work-groups adaptively — small launches run
//! inline on the calling thread (skipping the Rayon fork-join, which
//! would cost more than the kernel), larger ones fan work-groups out
//! across host threads by *index* with no `Vec<WorkGroup>` ever
//! materialized, the same decomposition Intel's OpenCL CPU runtime
//! applies — and takes the slice-level vectorized path for kernels that
//! expose one. Work-items within a group always run in local-id order.
//! Simulated devices execute identically (results must be real) but are
//! *timed* by the `eod-devsim` model, with the queue clock advancing in
//! modeled time; neither the scheduling choice nor the backend can ever
//! perturb modeled time.

use crate::backend::{default_backend, BackendKind};
use crate::buffer::Buffer;
use crate::context::Context;
use crate::device::{Device, SimBackend, Timing};
use crate::error::{Error, Result};
use crate::event::{CommandKind, Event};
use crate::kernel::Kernel;
use crate::ndrange::NdRange;
use crate::record::Command;
use crate::scalar::Scalar;
use eod_devsim::profile::KernelProfile;
use eod_telemetry::{Span, TraceSink, Track};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How `enqueue_kernel` maps work-groups onto host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum DispatchMode {
    /// Inline for small launches, parallel-by-index otherwise (default).
    #[default]
    Adaptive = 0,
    /// Always run groups sequentially on the calling thread.
    Inline = 1,
    /// Always fan groups out over the thread pool.
    Parallel = 2,
}

/// An in-order command queue with optional profiling.
pub struct CommandQueue {
    ctx: Context,
    profiling: bool,
    /// Which execution backend launches kernels (a [`BackendKind`]
    /// discriminant), snapshotted from [`default_backend`] at creation.
    backend: AtomicU8,
    /// Queue clock in seconds, stored as `f64` bits so advancing it is a
    /// CAS instead of a mutex acquisition: wall-anchored for native,
    /// modeled for simulated devices. Monotone non-decreasing, so the
    /// bit-level CAS never sees the same value for two distinct clocks.
    clock: AtomicU64,
    /// Replay mode (simulated devices only): skip functional re-execution of
    /// kernels and advance modeled time only. See [`CommandQueue::set_replay`].
    replay: AtomicBool,
    /// Work-group scheduling policy (a [`DispatchMode`] discriminant).
    dispatch: AtomicU8,
    /// Lock-free "is a sink attached?" flag mirroring `trace`, so the
    /// per-command fast path is one relaxed load instead of a mutex.
    trace_attached: AtomicBool,
    /// Optional span sink: when attached, every enqueued command records
    /// one device-track span carrying its profiling timestamps (and, on
    /// simulated devices, the modeled cost breakdown) as arguments.
    trace: Mutex<Option<Arc<TraceSink>>>,
}

impl CommandQueue {
    /// Create a queue on a context (profiling disabled, as in OpenCL).
    pub fn new(ctx: &Context) -> Self {
        Self {
            ctx: ctx.clone(),
            profiling: false,
            backend: AtomicU8::new(default_backend() as u8),
            clock: AtomicU64::new(0.0f64.to_bits()),
            replay: AtomicBool::new(false),
            dispatch: AtomicU8::new(DispatchMode::Adaptive as u8),
            trace_attached: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    /// Override the work-group scheduling policy. [`DispatchMode::Adaptive`]
    /// is right for production; the fixed modes exist for benchmarking the
    /// dispatcher itself and for determinism tests (results must be
    /// byte-identical under every mode).
    pub fn set_dispatch_mode(&self, mode: DispatchMode) {
        self.dispatch.store(mode as u8, Ordering::Relaxed);
    }

    /// The current scheduling policy.
    pub fn dispatch_mode(&self) -> DispatchMode {
        match self.dispatch.load(Ordering::Relaxed) {
            1 => DispatchMode::Inline,
            2 => DispatchMode::Parallel,
            _ => DispatchMode::Adaptive,
        }
    }

    /// Override this queue's execution backend (tests and equivalence
    /// harnesses; production queues inherit the process-wide default).
    pub fn set_backend(&self, kind: BackendKind) {
        self.backend.store(kind as u8, Ordering::Relaxed);
    }

    /// The execution backend this queue launches kernels on.
    pub fn backend_kind(&self) -> BackendKind {
        if self.backend.load(Ordering::Relaxed) == BackendKind::Devsim as u8 {
            BackendKind::Devsim
        } else {
            BackendKind::Native
        }
    }

    /// Enable or disable replay mode.
    ///
    /// Benchmark iterations are idempotent (same inputs, same outputs), so a
    /// simulated device that has executed an iteration once — and had its
    /// results verified — does not need to recompute it to *time* the next
    /// 49 samples: in replay mode, `enqueue_kernel` skips the functional
    /// execution and only draws a fresh modeled time from the device's
    /// noise stream. This keeps figure regeneration at `large` problem
    /// sizes tractable without weakening correctness checks (the first
    /// iteration of every run is always executed for real). Replay is a
    /// no-op on the native backend, where timing *is* the execution.
    pub fn set_replay(&self, on: bool) {
        self.replay.store(on, Ordering::Relaxed);
    }

    /// Is replay mode on?
    pub fn replay(&self) -> bool {
        self.replay.load(Ordering::Relaxed)
    }

    /// Enable profiling (`CL_QUEUE_PROFILING_ENABLE`).
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Attach a span sink (builder style).
    pub fn with_trace(self, sink: Arc<TraceSink>) -> Self {
        self.set_trace(Some(sink));
        self
    }

    /// Attach or detach the span sink at runtime; `None` stops recording.
    pub fn set_trace(&self, sink: Option<Arc<TraceSink>>) {
        let attached = sink.is_some();
        *self.trace.lock() = sink;
        // Release pairs with the Acquire in `trace_event`, so a thread
        // that observes the flag also observes the sink behind the mutex.
        self.trace_attached.store(attached, Ordering::Release);
    }

    /// Record one device-track span for a completed command, if a sink is
    /// attached. The slice covers `START..END` (the quantity every figure
    /// plots); `QUEUED`/`SUBMIT` and the derived overheads ride along as
    /// span arguments, and simulated kernels attach their modeled
    /// [`KernelCost`] breakdown.
    fn trace_event(&self, ev: &Event) {
        // The untraced fast path: one relaxed-ish load, no lock, and —
        // crucially — none of the Span allocation and argument formatting
        // below. Tracing is off for every figure-regeneration run, so
        // this branch is the per-command cost that matters.
        if !self.trace_attached.load(Ordering::Acquire) {
            return;
        }
        let Some(sink) = self.trace.lock().clone() else {
            return;
        };
        let category = match ev.kind {
            CommandKind::Kernel => "kernel",
            CommandKind::WriteBuffer | CommandKind::ReadBuffer => "transfer",
        };
        let mut span = Span::new(
            ev.name.clone(),
            category,
            Track::Device,
            ev.start * 1e6,
            (ev.end - ev.start).max(0.0) * 1e6,
        )
        .with_arg("backend", self.backend_kind().label())
        .with_arg("queued_us", ev.queued * 1e6)
        .with_arg("submit_us", ev.submit * 1e6)
        .with_arg("queue_overhead_us", ev.queue_overhead().as_secs_f64() * 1e6)
        .with_arg(
            "submit_overhead_us",
            ev.submit_overhead().as_secs_f64() * 1e6,
        );
        if let Some(cost) = &ev.cost {
            span = span
                .with_arg("cost_launch_us", cost.launch_s * 1e6)
                .with_arg("cost_compute_us", cost.compute_s * 1e6)
                .with_arg("cost_serial_us", cost.serial_s * 1e6)
                .with_arg("cost_memory_us", cost.memory_s * 1e6)
                .with_arg("bound", format!("{:?}", cost.bound).to_lowercase())
                .with_arg("utilization", cost.utilization);
        }
        sink.record(span);
    }

    /// The device this queue feeds.
    pub fn device(&self) -> &Device {
        self.ctx.device()
    }

    /// The context this queue was created on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Seconds elapsed on the queue clock (modeled time for simulated
    /// devices — the harness reads this as "device wall time").
    pub fn clock_seconds(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }

    /// Block until all enqueued commands complete. Execution is synchronous
    /// in this runtime, so this is a fence only in the API sense.
    pub fn finish(&self) {}

    fn advance_clock(&self, seconds: f64) -> (f64, f64) {
        // CAS loop over the clock's bit pattern. Per-queue enqueue is
        // expected to be single-threaded (OpenCL's in-order model; every
        // caller in this repo enqueues from one thread per queue), so the
        // loop runs once; under contention it degrades to the usual
        // lock-free retry, still cheaper than parking on a mutex. Note
        // for any future multi-producer use: each command still gets a
        // well-formed, non-overlapping (start, end) interval — the CAS
        // retries until it owns a fresh span — but a concurrent
        // `clock_seconds` reader between attempts can observe a clock
        // value that no event's interval has claimed yet, a subtly
        // different interleaving than the old mutex gave.
        let mut observed = self.clock.load(Ordering::Relaxed);
        loop {
            let start = f64::from_bits(observed);
            let end = start + seconds;
            match self.clock.compare_exchange_weak(
                observed,
                end.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (start, end),
                Err(current) => observed = current,
            }
        }
    }

    /// Hand a launch to this queue's execution backend under the current
    /// [`DispatchMode`]; returns the elapsed wall seconds.
    fn launch(&self, kernel: &dyn Kernel, range: &NdRange) -> f64 {
        self.backend_kind()
            .instance()
            .launch(kernel, range, self.dispatch_mode())
    }

    fn make_event(
        &self,
        name: String,
        kind: CommandKind,
        queued: f64,
        start: f64,
        end: f64,
    ) -> Event {
        Event {
            name,
            kind,
            queued,
            submit: queued,
            start,
            end,
            counters: None,
            cost: None,
            profile: None,
        }
    }

    /// A kernel launch timed by the device model: one draw from the
    /// device's noise stream, counters for the profile, and the queue
    /// clock advanced by the noisy cost. Live simulated launches and
    /// recorded ones both end here, so the two cannot drift apart.
    /// Replayed launches synthesize counters too (events keep
    /// `counters: Some(..)`); it is a memo lookup per launch, not a
    /// derivation.
    fn modeled_kernel(&self, sim: &SimBackend, name: &str, profile: KernelProfile) -> Event {
        let queued = self.clock_seconds();
        let cost = sim.noisy_cost(&profile);
        let counters = sim.counters(&profile, &cost);
        let (start, end) = self.advance_clock(cost.total_s);
        let mut ev = self.make_event(name.to_string(), CommandKind::Kernel, queued, start, end);
        ev.counters = Some(counters);
        ev.cost = Some(cost);
        ev.profile = Some(profile);
        self.trace_event(&ev);
        ev
    }

    /// A transfer that took `seconds` on the queue clock. The clock has
    /// not moved since the command was accepted — only the enqueuing
    /// thread advances it — so `QUEUED` is read here.
    fn transfer_event(&self, kind: CommandKind, seconds: f64) -> Event {
        let queued = self.clock_seconds();
        let (start, end) = self.advance_clock(seconds);
        let name = if kind == CommandKind::WriteBuffer {
            "write"
        } else {
            "read"
        };
        let ev = self.make_event(name.into(), kind, queued, start, end);
        self.trace_event(&ev);
        ev
    }

    /// A transfer of `bytes` timed by the device's host-link model.
    fn modeled_transfer(&self, sim: &SimBackend, kind: CommandKind, bytes: u64) -> Event {
        self.transfer_event(kind, sim.transfer.transfer_time(bytes).as_secs_f64())
    }

    /// Price one recorded [`Command`] on this queue's simulated device as
    /// the live call that recorded it would have been priced here, without
    /// executing anything: an allocation is admitted against this device's
    /// memory (or refused with the error a live allocation would get), a
    /// transfer or a launch advances the clock and returns its event.
    /// Native devices time real execution and have nothing to price.
    pub fn enqueue_recorded(&self, cmd: &Command) -> Result<Option<Event>> {
        let Timing::Modeled(sim) = self.device().timing() else {
            return Err(Error::InvalidValue(
                "recorded commands are priced on simulated devices only".into(),
            ));
        };
        Ok(match cmd {
            Command::Alloc { bytes } => {
                self.ctx.admit(*bytes)?;
                None
            }
            Command::Free { bytes } => {
                self.ctx.release(*bytes);
                None
            }
            Command::Write { bytes } => {
                Some(self.modeled_transfer(sim, CommandKind::WriteBuffer, *bytes))
            }
            Command::Read { bytes } => {
                Some(self.modeled_transfer(sim, CommandKind::ReadBuffer, *bytes))
            }
            Command::Kernel { name, profile } => {
                Some(self.modeled_kernel(sim, name, profile.clone()))
            }
        })
    }

    /// Launch a kernel over an ND-range (`clEnqueueNDRangeKernel`).
    pub fn enqueue_kernel(&self, kernel: &dyn Kernel, range: &NdRange) -> Result<Event> {
        range.validate(self.device().max_work_group_size())?;
        let profile = kernel.profile();
        profile.validate().map_err(Error::InvalidValue)?;
        self.ctx.record(|| Command::Kernel {
            name: kernel.name().to_string(),
            profile: profile.clone(),
        });

        match self.device().timing() {
            Timing::Wall => {
                let queued = self.clock_seconds();
                let elapsed = self.launch(kernel, range);
                let (start, end) = self.advance_clock(elapsed);
                let mut ev = self.make_event(
                    kernel.name().to_string(),
                    CommandKind::Kernel,
                    queued,
                    start,
                    end,
                );
                ev.profile = Some(profile);
                self.trace_event(&ev);
                Ok(ev)
            }
            Timing::Modeled(sim) => {
                // Real execution for correct results — unless this queue is
                // replaying an already-executed, verified iteration.
                if !self.replay() {
                    self.launch(kernel, range);
                }
                Ok(self.modeled_kernel(sim, kernel.name(), profile))
            }
        }
    }

    /// Copy host data into a buffer (`clEnqueueWriteBuffer`).
    ///
    /// The transfer is one memcpy-style pass, so — exactly as in OpenCL —
    /// the buffer must not be accessed by anything executing concurrently
    /// on another thread while the transfer runs. Commands on *this*
    /// queue can never overlap it: execution is synchronous and in-order,
    /// so every previously enqueued kernel has completed before the copy
    /// starts.
    pub fn enqueue_write_buffer<T: Scalar>(&self, buf: &Buffer<T>, data: &[T]) -> Result<Event> {
        if data.len() != buf.len() {
            return Err(Error::InvalidBufferSize(format!(
                "write of {} elements into buffer of {}",
                data.len(),
                buf.len()
            )));
        }
        self.ctx.record(|| Command::Write { bytes: buf.bytes() });
        let wall = Instant::now();
        // SAFETY (both backends): this runtime executes commands
        // synchronously, so no kernel previously enqueued on this queue
        // is still running; concurrent access from other threads is
        // excluded by the documented OpenCL-style transfer contract
        // above. This is the crate-internal home of the bulk-copy fast
        // path — kernels and hosts going through safe APIs get the
        // atomic per-element path instead.
        unsafe { buf.copy_from_slice(data) };
        Ok(match self.device().timing() {
            Timing::Wall => {
                self.transfer_event(CommandKind::WriteBuffer, wall.elapsed().as_secs_f64())
            }
            Timing::Modeled(sim) => {
                self.modeled_transfer(sim, CommandKind::WriteBuffer, buf.bytes())
            }
        })
    }

    /// Copy a buffer back to host memory (`clEnqueueReadBuffer`).
    ///
    /// Same memcpy-style transfer contract as
    /// [`CommandQueue::enqueue_write_buffer`]: no concurrent writers to
    /// the buffer from other threads while the transfer runs.
    pub fn enqueue_read_buffer<T: Scalar>(&self, buf: &Buffer<T>, out: &mut [T]) -> Result<Event> {
        if out.len() != buf.len() {
            return Err(Error::InvalidBufferSize(format!(
                "read of {} elements from buffer of {}",
                out.len(),
                buf.len()
            )));
        }
        self.ctx.record(|| Command::Read { bytes: buf.bytes() });
        let wall = Instant::now();
        // SAFETY (both backends): as in `enqueue_write_buffer` — in-order
        // synchronous execution means no enqueued kernel still runs, and
        // the documented transfer contract excludes other threads.
        unsafe { buf.copy_to_slice(out) };
        Ok(match self.device().timing() {
            Timing::Wall => {
                self.transfer_event(CommandKind::ReadBuffer, wall.elapsed().as_secs_f64())
            }
            Timing::Modeled(sim) => {
                self.modeled_transfer(sim, CommandKind::ReadBuffer, buf.bytes())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ClosureKernel;
    use crate::ndrange::WorkItem;
    use crate::platform::Platform;
    use eod_devsim::catalog::DeviceId;

    fn saxpy_on(device: Device) -> (Vec<f32>, Event) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let n = 4096;
        let x = ctx.create_buffer_from(&vec![3.0f32; n]).unwrap();
        let y = ctx.create_buffer_from(&vec![1.0f32; n]).unwrap();
        let k = ClosureKernel::new("saxpy", n as u64, {
            let (x, y) = (x.view(), y.view());
            move |item: &WorkItem| {
                let i = item.global_id(0);
                y.set(i, y.get(i) + 2.0 * x.get(i));
            }
        });
        let ev = queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
        let mut out = vec![0.0f32; n];
        queue.enqueue_read_buffer(&y, &mut out).unwrap();
        (out, ev)
    }

    #[test]
    fn native_execution_is_correct_and_timed() {
        let (out, ev) = saxpy_on(Device::native());
        assert!(out.iter().all(|&v| v == 7.0));
        assert!(ev.end >= ev.start);
        assert_eq!(ev.kind, CommandKind::Kernel);
        assert!(ev.counters.is_none(), "native backend has no PAPI synth");
    }

    #[test]
    fn simulated_execution_is_correct_with_modeled_time() {
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let (out, ev) = saxpy_on(gtx);
        assert!(out.iter().all(|&v| v == 7.0), "results must still be real");
        // Modeled time must include at least the 9 µs launch overhead.
        assert!(ev.duration().as_secs_f64() >= 8e-6, "{:?}", ev.duration());
        assert!(ev.counters.is_some());
        assert!(ev.cost.is_some());
    }

    #[test]
    fn queue_clock_is_monotone_and_cumulative() {
        let id = DeviceId::by_name("i7-6700K").unwrap();
        let ctx = Context::new(Device::simulated(id));
        let queue = CommandQueue::new(&ctx).with_profiling();
        let b = ctx.create_buffer::<f32>(1024).unwrap();
        let data = vec![0.0f32; 1024];
        let e1 = queue.enqueue_write_buffer(&b, &data).unwrap();
        let e2 = queue.enqueue_write_buffer(&b, &data).unwrap();
        assert!(e2.queued >= e1.end, "in-order queue");
        assert!(queue.clock_seconds() >= e2.end);
    }

    #[test]
    fn kernel_rejects_bad_range() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let k = ClosureKernel::new("noop", 4, |_item: &WorkItem| {});
        let err = queue.enqueue_kernel(&k, &NdRange::d1(100, 64));
        assert!(matches!(err, Err(Error::InvalidWorkGroupSize(_))));
    }

    #[test]
    fn transfer_size_mismatch_rejected() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let b = ctx.create_buffer::<u32>(10).unwrap();
        assert!(queue.enqueue_write_buffer(&b, &[1u32; 5]).is_err());
        let mut out = [0u32; 3];
        assert!(queue.enqueue_read_buffer(&b, &mut out).is_err());
    }

    #[test]
    fn simulated_transfers_model_pcie() {
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let ctx = Context::new(gtx);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let n = 1 << 20;
        let b = ctx.create_buffer::<f32>(n).unwrap();
        let data = vec![0.0f32; n];
        let ev = queue.enqueue_write_buffer(&b, &data).unwrap();
        // 4 MiB over 12 GB/s ≈ 350 µs; allow generous bounds.
        let t = ev.duration().as_secs_f64();
        assert!(t > 1e-4 && t < 1e-2, "t = {t}");
    }

    #[test]
    fn replay_skips_execution_but_advances_clock() {
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let ctx = Context::new(gtx);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let n = 256;
        let counter = ctx.create_buffer::<u32>(n).unwrap();
        let k = ClosureKernel::new("inc", n as u64, {
            let c = counter.view();
            move |item: &WorkItem| {
                let i = item.global_id(0);
                c.set(i, c.get(i) + 1);
            }
        });
        let range = NdRange::d1(n, 64);
        queue.enqueue_kernel(&k, &range).unwrap();
        assert_eq!(counter.get(0), 1);
        queue.set_replay(true);
        let t0 = queue.clock_seconds();
        let ev = queue.enqueue_kernel(&k, &range).unwrap();
        assert_eq!(counter.get(0), 1, "replay must not re-execute");
        assert!(queue.clock_seconds() > t0, "clock must still advance");
        assert!(ev.duration().as_secs_f64() > 0.0);
        queue.set_replay(false);
        queue.enqueue_kernel(&k, &range).unwrap();
        assert_eq!(counter.get(0), 2, "execution resumes after replay");
    }

    #[test]
    fn replay_is_noop_on_native() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        queue.set_replay(true);
        let n = 64;
        let b = ctx.create_buffer::<u32>(n).unwrap();
        let k = ClosureKernel::new("fill", n as u64, {
            let b = b.view();
            move |item: &WorkItem| b.set(item.global_id(0), 7)
        });
        queue.enqueue_kernel(&k, &NdRange::d1(n, 8)).unwrap();
        assert_eq!(b.get(5), 7, "native backend always executes");
    }

    #[test]
    fn trace_spans_match_event_timestamps() {
        // Acceptance: kernel/write/read slice durations equal the
        // corresponding Event END − START values.
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let ctx = Context::new(gtx);
        let sink = std::sync::Arc::new(TraceSink::new());
        let queue = CommandQueue::new(&ctx)
            .with_profiling()
            .with_trace(std::sync::Arc::clone(&sink));
        let n = 1024;
        let b = ctx.create_buffer::<f32>(n).unwrap();
        let data = vec![1.0f32; n];
        let mut out_data = vec![0.0f32; n];
        let k = ClosureKernel::new("triple", n as u64, {
            let b = b.view();
            move |item: &WorkItem| {
                let i = item.global_id(0);
                b.set(i, b.get(i) * 3.0);
            }
        });
        let events = vec![
            queue.enqueue_write_buffer(&b, &data).unwrap(),
            queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap(),
            queue.enqueue_read_buffer(&b, &mut out_data).unwrap(),
        ];
        let spans = sink.drain();
        assert_eq!(spans.len(), events.len());
        for (span, ev) in spans.iter().zip(&events) {
            assert_eq!(span.name, ev.name);
            assert!(
                (span.dur_us - (ev.end - ev.start) * 1e6).abs() < 1e-9,
                "{}: span dur {} µs vs event {} µs",
                ev.name,
                span.dur_us,
                (ev.end - ev.start) * 1e6
            );
            assert!((span.start_us - ev.start * 1e6).abs() < 1e-9);
            assert_eq!(span.track, eod_telemetry::Track::Device);
        }
        let kernel_span = &spans[1];
        assert_eq!(kernel_span.category, "kernel");
        assert!(
            kernel_span.args.iter().any(|(k, _)| k == "cost_launch_us"),
            "simulated kernels attach the KernelCost breakdown"
        );
        // Detaching the sink stops recording.
        queue.set_trace(None);
        queue.enqueue_write_buffer(&b, &data).unwrap();
        assert!(sink.is_empty());
    }

    /// A kernel with order-sensitive f32 math per item: any change in which
    /// item computes which output, or in per-item arithmetic order, changes
    /// the bits.
    fn mix_kernel(out: &crate::buffer::Buffer<f32>, n: usize) -> impl Kernel {
        ClosureKernel::new("mix", n as u64, {
            let out = out.view();
            move |item: &WorkItem| {
                let i = item.global_id(0);
                let g = item.group_id(0) as f32;
                let l = item.local_id(0) as f32;
                let v = (i as f32 + 0.1) * 1.000_1 + g * 0.333_3 - l / 7.0;
                out.set(i, v * v + v.sqrt());
            }
        })
    }

    fn run_mix(queue: &CommandQueue, ctx: &Context, n: usize) -> Vec<u32> {
        let out = ctx.create_buffer::<f32>(n).unwrap();
        let k = mix_kernel(&out, n);
        queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
        out.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dispatch_modes_produce_byte_identical_results() {
        // Determinism acceptance: the same kernel must produce bit-identical
        // output under inline dispatch, forced parallel dispatch, and
        // replay-then-execute on a simulated device.
        let n = 64 * 1024; // large enough that Adaptive would go parallel
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);

        queue.set_dispatch_mode(DispatchMode::Inline);
        let inline_bits = run_mix(&queue, &ctx, n);
        queue.set_dispatch_mode(DispatchMode::Parallel);
        let parallel_bits = run_mix(&queue, &ctx, n);
        assert_eq!(inline_bits, parallel_bits, "inline vs parallel dispatch");

        // Replay then execute on a simulated device: replay must leave the
        // buffer untouched, and the subsequent real execution must match the
        // native result bit-for-bit.
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let sim_ctx = Context::new(gtx);
        let sim_queue = CommandQueue::new(&sim_ctx).with_profiling();
        let out = sim_ctx.create_buffer::<f32>(n).unwrap();
        let k = mix_kernel(&out, n);
        sim_queue.set_replay(true);
        sim_queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
        assert!(
            out.to_vec().iter().all(|&v| v == 0.0),
            "replay must not run"
        );
        sim_queue.set_replay(false);
        sim_queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
        let replayed_bits: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(inline_bits, replayed_bits, "replay-then-execute");
    }

    /// A kernel exposing both bodies: the vectorized body computes exactly
    /// the per-item expression over zero-copy slices.
    struct DualPathKernel {
        src: crate::buffer::BufView<f32>,
        dst: crate::buffer::BufView<f32>,
        n: usize,
    }

    impl DualPathKernel {
        fn expr(x: f32) -> f32 {
            (x * 1.000_1 + 0.1).sqrt() * x - 0.25
        }
    }

    impl Kernel for DualPathKernel {
        fn name(&self) -> &str {
            "dual_path"
        }
        fn profile(&self) -> eod_devsim::profile::KernelProfile {
            let mut p = eod_devsim::profile::KernelProfile::new("dual_path");
            p.work_items = self.n as u64;
            p.flops = self.n as f64 * 4.0;
            p.bytes_read = self.n as f64 * 4.0;
            p.bytes_written = self.n as f64 * 4.0;
            p.working_set = self.n as u64 * 8;
            p
        }
        fn run_group(&self, group: &crate::ndrange::WorkGroup) {
            group.for_each_item(|item| {
                let i = item.global_id(0);
                if i < self.n {
                    self.dst.set(i, Self::expr(self.src.get(i)));
                }
            });
        }
        fn body(&self) -> crate::kernel::KernelBody<'_> {
            crate::kernel::KernelBody::Vectorized(self)
        }
    }

    impl crate::kernel::VectorizedBody for DualPathKernel {
        fn domain(&self) -> usize {
            self.n
        }
        fn run_span(&self, span: std::ops::Range<usize>) {
            // SAFETY: src is a launch input (no writers); this call
            // exclusively owns dst[span] — the backend hands out disjoint
            // spans.
            unsafe {
                let src = self.src.slice(span.clone());
                let dst = self.dst.slice_mut(span);
                crate::vecops::map(src, dst, Self::expr);
            }
        }
    }

    #[test]
    fn backend_and_kernel_path_are_byte_equivalent() {
        use crate::backend::{set_default_kernel_path, BackendKind, KernelPath};
        let n: usize = 40_000; // not a work-group multiple: exercises the pad guard
        let ctx = Context::new(Device::native());
        let input: Vec<f32> = (0..n).map(|i| (i as f32) * 0.017 + 0.3).collect();
        let src = ctx.create_buffer_from(&input).unwrap();
        let range = NdRange::d1(n.div_ceil(64) * 64, 64);

        let run = |backend: BackendKind, path: KernelPath, mode: DispatchMode| -> Vec<u32> {
            let queue = CommandQueue::new(&ctx);
            queue.set_backend(backend);
            queue.set_dispatch_mode(mode);
            set_default_kernel_path(path);
            let dst = ctx.create_buffer::<f32>(n).unwrap();
            let k = DualPathKernel {
                src: src.view(),
                dst: dst.view(),
                n,
            };
            queue.enqueue_kernel(&k, &range).unwrap();
            set_default_kernel_path(KernelPath::Vectorized);
            dst.to_vec().iter().map(|v| v.to_bits()).collect()
        };

        let reference = run(
            BackendKind::Native,
            KernelPath::Scalar,
            DispatchMode::Inline,
        );
        assert_eq!(reference[0], DualPathKernel::expr(input[0]).to_bits());
        for backend in [BackendKind::Native, BackendKind::Devsim] {
            for path in [KernelPath::Scalar, KernelPath::Vectorized] {
                for mode in [
                    DispatchMode::Inline,
                    DispatchMode::Parallel,
                    DispatchMode::Adaptive,
                ] {
                    assert_eq!(
                        reference,
                        run(backend, path, mode),
                        "{backend:?} × {path:?} × {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn queue_snapshots_process_default_backend() {
        use crate::backend::{set_default_backend, BackendKind};
        let ctx = Context::new(Device::native());
        assert_eq!(
            CommandQueue::new(&ctx).backend_kind(),
            crate::backend::default_backend()
        );
        set_default_backend(BackendKind::Devsim);
        let q = CommandQueue::new(&ctx);
        set_default_backend(BackendKind::Native);
        assert_eq!(
            q.backend_kind(),
            BackendKind::Devsim,
            "snapshot at creation"
        );
        q.set_backend(BackendKind::Native);
        assert_eq!(q.backend_kind(), BackendKind::Native);
    }

    #[test]
    fn trace_sink_attached_mid_stream_records_subsequent_commands() {
        // Regression for the lock-free trace_event fast path: a queue that
        // starts without a sink must begin recording as soon as one is
        // attached, and only the commands enqueued after attachment.
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let ctx = Context::new(gtx);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let n = 512;
        let b = ctx.create_buffer::<f32>(n).unwrap();
        let data = vec![1.0f32; n];
        queue.enqueue_write_buffer(&b, &data).unwrap();
        queue.enqueue_write_buffer(&b, &data).unwrap();

        let sink = std::sync::Arc::new(TraceSink::new());
        queue.set_trace(Some(std::sync::Arc::clone(&sink)));
        let k = ClosureKernel::new("halve", n as u64, {
            let b = b.view();
            move |item: &WorkItem| {
                let i = item.global_id(0);
                b.set(i, b.get(i) * 0.5);
            }
        });
        queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
        let mut out = vec![0.0f32; n];
        queue.enqueue_read_buffer(&b, &mut out).unwrap();

        let spans = sink.drain();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["halve", "read"],
            "only post-attach commands are recorded"
        );
    }

    #[test]
    fn two_d_kernel_on_native() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let (w, h) = (64, 32);
        let img = ctx.create_buffer::<f32>(w * h).unwrap();
        let k = ClosureKernel::new("fill2d", (w * h) as u64, {
            let img = img.view();
            move |item: &WorkItem| {
                let (x, y) = (item.global_id(0), item.global_id(1));
                img.set(y * w + x, (x + y) as f32);
            }
        });
        queue.enqueue_kernel(&k, &NdRange::d2(w, h, 16, 8)).unwrap();
        assert_eq!(img.get(0), 0.0);
        assert_eq!(img.get(1), 1.0);
        assert_eq!(img.get(w * h - 1), (w - 1 + h - 1) as f32);
    }

    #[test]
    fn recorded_commands_price_to_the_events_the_live_calls_produced() {
        // Live on a recording context, then the tape priced on a fresh
        // queue of the same device with the noise stream restarted: every
        // timestamp, cost and counter equal, bit for bit.
        let id = DeviceId::by_name("K40m").unwrap();
        let device = Device::simulated_seeded(id, 5);
        let n = 2048;
        let live: Vec<Event> = {
            let ctx = Context::recording(device.clone());
            let queue = CommandQueue::new(&ctx).with_profiling();
            let b = ctx.create_buffer::<f32>(n).unwrap();
            let k = ClosureKernel::new("double", n as u64, {
                let b = b.view();
                move |item: &WorkItem| {
                    let i = item.global_id(0);
                    b.set(i, b.get(i) * 2.0);
                }
            });
            let mut out = vec![0.0f32; n];
            let events = vec![
                queue.enqueue_write_buffer(&b, &vec![1.0f32; n]).unwrap(),
                queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap(),
                queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap(),
                queue.enqueue_read_buffer(&b, &mut out).unwrap(),
            ];
            assert_eq!(out[0], 4.0);
            let tape = ctx.finish_recording();
            assert_eq!(tape.len(), 5, "one allocation, four queue commands");
            assert_eq!(
                tape[0],
                Command::Alloc {
                    bytes: 4 * n as u64
                }
            );
            assert_eq!(
                tape[1],
                Command::Write {
                    bytes: 4 * n as u64
                }
            );
            assert!(matches!(&tape[2], Command::Kernel { name, .. } if name == "double"));

            device.reseed_noise(5);
            let ctx = Context::new(device.clone());
            let queue = CommandQueue::new(&ctx).with_profiling();
            let priced: Vec<Event> = tape
                .iter()
                .filter_map(|cmd| queue.enqueue_recorded(cmd).unwrap())
                .collect();
            assert_eq!(ctx.allocated_bytes(), 4 * n as u64);
            assert_eq!(priced.len(), events.len());
            for (p, l) in priced.iter().zip(&events) {
                assert_eq!((&p.name, p.kind), (&l.name, l.kind));
                assert_eq!(
                    [p.queued, p.submit, p.start, p.end].map(f64::to_bits),
                    [l.queued, l.submit, l.start, l.end].map(f64::to_bits),
                    "{}",
                    l.name
                );
                assert_eq!(p.counters, l.counters);
                assert_eq!(p.cost, l.cost);
                assert_eq!(p.profile, l.profile);
            }
            events
        };
        assert!(live[1].end > live[1].start);
        // Native devices time execution; there is nothing to price.
        let queue = CommandQueue::new(&Context::new(Device::native()));
        assert!(queue.enqueue_recorded(&Command::Read { bytes: 4 }).is_err());
    }
}
