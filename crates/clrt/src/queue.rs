//! In-order command queues.
//!
//! A [`CommandQueue`] executes commands synchronously in submission order
//! (OpenCL's default in-order semantics — the only mode the OpenDwarfs
//! benchmarks use) and, when profiling is enabled, returns an [`Event`] per
//! command with `QUEUED`/`SUBMIT`/`START`/`END` timestamps on the queue's
//! clock.
//!
//! Every launch goes through one dispatcher: kernels that expose a
//! [`KernelBody::Vectorized`] body take the slice-level path, the rest the
//! per-item work-group loop. Both schedule adaptively — small launches run
//! inline on the calling thread (skipping the Rayon fork-join, which would
//! cost more than the kernel), larger ones fan out across host threads by
//! *index* with no `Vec<WorkGroup>` ever materialized, the same
//! decomposition Intel's OpenCL CPU runtime applies. Work-items within a
//! group always run in local-id order.
//!
//! A live command — a launch or a transfer — is timed by the host wall
//! clock on every device; on a recording context it is also taped. Modeled
//! time comes from one place: [`CommandQueue::enqueue_recorded`] prices a
//! taped command on a simulated device with the `eod-devsim` model, so how
//! a launch was scheduled can never perturb modeled time.

use crate::backend::{adaptive_inline, run_groups, run_vectorized};
use crate::buffer::Buffer;
use crate::context::Context;
use crate::device::{Device, SimBackend, Timing};
use crate::error::{Error, Result};
use crate::event::{CommandKind, Event};
use crate::kernel::{Kernel, KernelBody, PerItem};
use crate::ndrange::NdRange;
use crate::record::Command;
use crate::scalar::Scalar;
use eod_devsim::profile::KernelProfile;
use eod_telemetry::{Span, TraceSink, Track};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An in-order command queue with optional profiling.
pub struct CommandQueue {
    ctx: Context,
    profiling: bool,
    /// Run every launch through its per-item body (the reference queue).
    per_item: bool,
    /// Queue clock in seconds, stored as `f64` bits so advancing it is a
    /// CAS instead of a mutex acquisition: host wall time for live
    /// commands, modeled time for priced ones. Monotone non-decreasing, so the
    /// bit-level CAS never sees the same value for two distinct clocks.
    clock: AtomicU64,
    /// Replay mode (simulated devices only): skip functional re-execution
    /// of kernels. See [`CommandQueue::set_replay`].
    replay: AtomicBool,
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
            per_item: false,
            clock: AtomicU64::new(0.0f64.to_bits()),
            replay: AtomicBool::new(false),
            trace_attached: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    /// **Reference only.** A queue that runs every launch through the
    /// kernel's per-item body ([`Kernel::run_group`]), ignoring any
    /// vectorized one. It exists so equivalence tests and the
    /// scalar-versus-vectorized bench rows can compare the two bodies of
    /// one kernel; nothing in the product constructs it, and no flag,
    /// config field or environment variable reaches it.
    pub fn per_item_reference(ctx: &Context) -> Self {
        Self {
            per_item: true,
            ..Self::new(ctx)
        }
    }

    /// Enable or disable replay mode.
    ///
    /// Benchmark iterations are idempotent (same inputs, same outputs), so
    /// once an iteration has executed — and been verified — recording the
    /// next one needs only its commands: in replay mode `enqueue_kernel`
    /// on a simulated device tapes the launch and its profile but skips
    /// the functional execution. A model-only recording replays its first
    /// iteration too. Replay is a no-op on the native device, where timing
    /// *is* the execution.
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

    /// Seconds elapsed on the queue clock (modeled time on a queue that
    /// prices recorded commands — the harness reads this as "device wall
    /// time").
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

    /// Execute one launch on the host.
    fn launch(&self, kernel: &dyn Kernel, range: &NdRange) {
        let reference = PerItem(kernel);
        let kernel: &dyn Kernel = if self.per_item { &reference } else { kernel };
        match kernel.body() {
            KernelBody::Vectorized(body) => run_vectorized(body, adaptive_inline(body.domain())),
            KernelBody::PerItem => {
                run_groups(kernel, range, adaptive_inline(range.global_volume()))
            }
        }
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

    /// A recorded launch timed by the device model: one draw from the
    /// device's noise stream, counters for the profile (a memo lookup per
    /// launch, not a derivation), and the queue clock advanced by the
    /// noisy cost.
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

    /// A recorded transfer of `bytes` timed by the device's host-link model.
    fn modeled_transfer(&self, sim: &SimBackend, kind: CommandKind, bytes: u64) -> Event {
        self.transfer_event(kind, sim.transfer.transfer_time(bytes).as_secs_f64())
    }

    /// Price one recorded [`Command`] on this queue's simulated device,
    /// without executing anything: an allocation is admitted against this
    /// device's memory (or refused with the error a live allocation would
    /// get), a transfer or a launch advances the modeled clock and returns
    /// its event, with the launch's
    /// [`KernelCost`](eod_devsim::model::KernelCost) and counters. This is
    /// the only place modeled time comes from. Native devices time real
    /// execution and have nothing to price.
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

        // Replay mode skips a simulated launch: its results are already
        // checked, and only its profile was wanted.
        let queued = self.clock_seconds();
        let started = Instant::now();
        if !self.replay() || self.device().is_native() {
            self.launch(kernel, range);
        }
        let (start, end) = self.advance_clock(started.elapsed().as_secs_f64());
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
        // SAFETY: this runtime executes commands synchronously, so no
        // kernel previously enqueued on this queue is still running;
        // concurrent access from other threads is excluded by the
        // documented OpenCL-style transfer contract above. This is the
        // crate-internal home of the bulk-copy fast path — kernels and
        // hosts going through safe APIs get the atomic per-element path
        // instead.
        unsafe { buf.copy_from_slice(data) };
        Ok(self.transfer_event(CommandKind::WriteBuffer, wall.elapsed().as_secs_f64()))
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
        // SAFETY: as in `enqueue_write_buffer` — in-order synchronous
        // execution means no enqueued kernel still runs, and the
        // documented transfer contract excludes other threads.
        unsafe { buf.copy_to_slice(out) };
        Ok(self.transfer_event(CommandKind::ReadBuffer, wall.elapsed().as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ClosureKernel;
    use crate::ndrange::WorkItem;
    use crate::platform::Platform;
    use eod_devsim::catalog::DeviceId;

    fn saxpy_on(ctx: &Context) -> (Vec<f32>, Event) {
        let queue = CommandQueue::new(ctx).with_profiling();
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

    fn gtx() -> Device {
        Platform::simulated().device_by_name("GTX 1080").unwrap()
    }

    /// `tape` priced on a fresh queue of `device`: the events it returns.
    fn price(device: &Device, tape: &[Command]) -> Vec<Event> {
        let queue = CommandQueue::new(&Context::new(device.clone())).with_profiling();
        tape.iter()
            .filter_map(|cmd| queue.enqueue_recorded(cmd).unwrap())
            .collect()
    }

    #[test]
    fn native_execution_is_correct_and_timed() {
        let (out, ev) = saxpy_on(&Context::new(Device::native()));
        assert!(out.iter().all(|&v| v == 7.0));
        assert!(ev.end >= ev.start);
        assert_eq!(ev.kind, CommandKind::Kernel);
        assert!(ev.counters.is_none(), "native backend has no PAPI synth");
    }

    #[test]
    fn simulated_execution_is_correct_with_modeled_time() {
        let ctx = Context::recording(gtx());
        let (out, live) = saxpy_on(&ctx);
        assert!(out.iter().all(|&v| v == 7.0), "results must still be real");
        assert!(live.cost.is_none(), "a live call is not priced");
        let priced = price(&gtx(), &ctx.finish_recording());
        let ev = &priced[0];
        assert_eq!(
            (ev.kind, ev.profile.as_ref()),
            (live.kind, live.profile.as_ref())
        );
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
        let ctx = Context::recording(gtx());
        let queue = CommandQueue::new(&ctx).with_profiling();
        let n = 1 << 20;
        let b = ctx.create_buffer::<f32>(n).unwrap();
        let data = vec![0.0f32; n];
        queue.enqueue_write_buffer(&b, &data).unwrap();
        let priced = price(&gtx(), &ctx.finish_recording());
        // 4 MiB over 12 GB/s ≈ 350 µs; allow generous bounds.
        let t = priced[0].duration().as_secs_f64();
        assert!(t > 1e-4 && t < 1e-2, "t = {t}");
    }

    #[test]
    fn replay_skips_execution_but_advances_clock() {
        let ctx = Context::recording(gtx());
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
        queue.enqueue_kernel(&k, &range).unwrap();
        assert_eq!(counter.get(0), 1, "replay must not re-execute");
        queue.set_replay(false);
        queue.enqueue_kernel(&k, &range).unwrap();
        assert_eq!(counter.get(0), 2, "execution resumes after replay");
        // The replayed launch is taped like the others, and priced: it
        // advances the modeled clock.
        let tape = ctx.finish_recording();
        assert_eq!(tape[1], tape[2]);
        let priced = price(&gtx(), &tape);
        assert_eq!(priced.len(), 3);
        assert!(priced[1].start >= priced[0].end);
        assert!(
            priced[1].duration().as_secs_f64() > 0.0,
            "clock must still advance"
        );
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
        let ctx = Context::recording(gtx());
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
        assert_eq!(spans[1].category, "kernel");
        // Detaching the sink stops recording.
        queue.set_trace(None);
        queue.enqueue_write_buffer(&b, &data).unwrap();
        assert!(sink.is_empty());
        // Priced kernels attach their modeled cost breakdown.
        let priced = CommandQueue::new(&Context::new(gtx())).with_trace(Arc::clone(&sink));
        for cmd in ctx.finish_recording() {
            priced.enqueue_recorded(&cmd).unwrap();
        }
        let kernel_span = &sink.drain()[1];
        assert_eq!(kernel_span.category, "kernel");
        assert!(
            kernel_span.args.iter().any(|(k, _)| k == "cost_launch_us"),
            "simulated kernels attach the KernelCost breakdown"
        );
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
        let n = 64 * 1024; // large enough that the queue would go parallel
        let ctx = Context::new(Device::native());
        let range = NdRange::d1(n, 64);
        let run = |inline: bool| -> Vec<u32> {
            let out = ctx.create_buffer::<f32>(n).unwrap();
            run_groups(&mix_kernel(&out, n), &range, inline);
            out.to_vec().iter().map(|v| v.to_bits()).collect()
        };
        let inline_bits = run(true);
        assert_eq!(inline_bits, run(false), "inline vs parallel dispatch");
        assert_eq!(
            inline_bits,
            run_mix(&CommandQueue::new(&ctx), &ctx, n),
            "the queue's adaptive dispatch"
        );

        // Replay then execute on a simulated device: replay must leave the
        // buffer untouched, and the subsequent real execution must match the
        // native result bit-for-bit.
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let sim_ctx = Context::new(gtx);
        let sim_queue = CommandQueue::new(&sim_ctx).with_profiling();
        let out = sim_ctx.create_buffer::<f32>(n).unwrap();
        let k = mix_kernel(&out, n);
        sim_queue.set_replay(true);
        sim_queue.enqueue_kernel(&k, &range).unwrap();
        assert!(
            out.to_vec().iter().all(|&v| v == 0.0),
            "replay must not run"
        );
        sim_queue.set_replay(false);
        sim_queue.enqueue_kernel(&k, &range).unwrap();
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
            // exclusively owns dst[span] — the dispatcher hands out disjoint
            // spans.
            unsafe {
                let src = self.src.slice(span.clone());
                let dst = self.dst.slice_mut(span);
                crate::vecops::map(src, dst, Self::expr);
            }
        }
    }

    #[test]
    fn per_item_and_vectorized_bodies_are_byte_equivalent() {
        let n: usize = 40_000; // not a work-group multiple: exercises the pad guard
        let ctx = Context::new(Device::native());
        let input: Vec<f32> = (0..n).map(|i| (i as f32) * 0.017 + 0.3).collect();
        let src = ctx.create_buffer_from(&input).unwrap();
        let range = NdRange::d1(n.div_ceil(64) * 64, 64);
        let run = |launch: &dyn Fn(&DualPathKernel)| -> Vec<u32> {
            let dst = ctx.create_buffer::<f32>(n).unwrap();
            launch(&DualPathKernel {
                src: src.view(),
                dst: dst.view(),
                n,
            });
            dst.to_vec().iter().map(|v| v.to_bits()).collect()
        };

        let reference = run(&|k| run_groups(k, &range, true));
        assert_eq!(reference[0], DualPathKernel::expr(input[0]).to_bits());
        for inline in [true, false] {
            assert_eq!(reference, run(&|k| run_groups(k, &range, inline)));
            assert_eq!(reference, run(&|k| run_vectorized(k, inline)));
        }
        // What the two queues do with it: the vectorized body by default,
        // the per-item one on the reference queue.
        for queue in [
            CommandQueue::new(&ctx),
            CommandQueue::per_item_reference(&ctx),
        ] {
            assert_eq!(
                reference,
                run(&|k| {
                    queue.enqueue_kernel(k, &range).unwrap();
                })
            );
        }
    }

    /// Marks each element with the body that computed it.
    struct WhichBody {
        dst: crate::buffer::BufView<u32>,
        n: usize,
    }

    impl Kernel for WhichBody {
        fn name(&self) -> &str {
            "which_body"
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile::new("which_body")
        }
        fn run_group(&self, group: &crate::ndrange::WorkGroup) {
            group.for_each_item(|item| self.dst.set(item.global_id(0), 1));
        }
        fn body(&self) -> KernelBody<'_> {
            KernelBody::Vectorized(self)
        }
    }

    impl crate::kernel::VectorizedBody for WhichBody {
        fn domain(&self) -> usize {
            self.n
        }
        fn run_span(&self, span: std::ops::Range<usize>) {
            for i in span {
                self.dst.set(i, 2);
            }
        }
    }

    #[test]
    fn only_the_reference_queue_takes_the_per_item_body() {
        let n = 256;
        let ctx = Context::new(Device::native());
        for (queue, want) in [
            (CommandQueue::new(&ctx), 2),
            (CommandQueue::per_item_reference(&ctx), 1),
        ] {
            let dst = ctx.create_buffer::<u32>(n).unwrap();
            let k = WhichBody { dst: dst.view(), n };
            queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap();
            assert!(dst.to_vec().iter().all(|&v| v == want), "want {want}");
        }
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
    fn recorded_commands_price_to_events_that_mirror_the_live_calls() {
        // Live on a recording context, then the tape priced twice on fresh
        // queues of the same device with the noise stream restarted: one
        // event per live call, with its name, kind and profile, and every
        // timestamp, cost and counter equal between the pricings, bit for
        // bit.
        let id = DeviceId::by_name("K40m").unwrap();
        let device = Device::simulated_seeded(id, 5);
        let n = 2048;
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
        let live = vec![
            queue.enqueue_write_buffer(&b, &vec![1.0f32; n]).unwrap(),
            queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap(),
            queue.enqueue_kernel(&k, &NdRange::d1(n, 64)).unwrap(),
            queue.enqueue_read_buffer(&b, &mut out).unwrap(),
        ];
        assert_eq!(out[0], 4.0);
        let tape = ctx.finish_recording();
        assert_eq!(tape.len(), 5, "one allocation, four queue commands");
        let bytes = 4 * n as u64;
        assert_eq!(tape[0], Command::Alloc { bytes });
        assert_eq!(tape[1], Command::Write { bytes });
        assert!(matches!(&tape[2], Command::Kernel { name, .. } if name == "double"));

        let priced = |at: &Context| -> Vec<Event> {
            device.reseed_noise(5);
            let queue = CommandQueue::new(at).with_profiling();
            tape.iter()
                .filter_map(|cmd| queue.enqueue_recorded(cmd).unwrap())
                .collect()
        };
        let at = Context::new(device.clone());
        let (first, again) = (priced(&at), priced(&Context::new(device.clone())));
        assert_eq!(at.allocated_bytes(), bytes);
        assert_eq!(first.len(), live.len());
        for ((p, q), l) in first.iter().zip(&again).zip(&live) {
            assert_eq!((&p.name, p.kind, &p.profile), (&l.name, l.kind, &l.profile));
            assert_eq!(
                [p.queued, p.submit, p.start, p.end].map(f64::to_bits),
                [q.queued, q.submit, q.start, q.end].map(f64::to_bits),
                "{}",
                l.name
            );
            assert_eq!((&p.counters, &p.cost), (&q.counters, &q.cost));
        }
        assert!(first[1].cost.is_some() && live[1].cost.is_none());
        assert!(first[1].end > first[1].start);
        // Native devices time execution; there is nothing to price.
        let queue = CommandQueue::new(&Context::new(Device::native()));
        assert!(queue.enqueue_recorded(&Command::Read { bytes: 4 }).is_err());
    }
}
