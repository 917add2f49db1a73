//! Record once, price everywhere.
//!
//! Nothing a simulated group *executes* depends on its device: the
//! workload is generated from `(benchmark, size, seed)`, its kernels run
//! on the host, and the serial verify reads the result back. The device
//! only prices what was asked of it — allocation sizes, transfer bytes and
//! one [`KernelProfile`] per launch. A [`RecordedRun`] is that request
//! list, taken once by [`record`] on a recording [`Context`]; a [`Source`]
//! is what a measurement group iterates: the recorded run priced on the
//! group's own queue, or — on the native device, which times execution —
//! the live workload.
//!
//! Recorded runs live in a [`RunLog`] (the process-wide one unless the
//! caller passes another), keyed by the workload's identity ([`RunKey`]).
//! The first requester of a key leads: it records, publishes, then prices
//! the run exactly as every later requester does. Requesters that arrive
//! meanwhile wait for that one recording instead of repeating it; if the
//! leader fails they take over, one at a time. Failed runs are never
//! stored.
//!
//! **Pricing is deterministic.** A recording draws nothing from a device's
//! noise stream, so a group that reseeds its device and then prices set-up
//! transfers, first-iteration launches, verify reads and the sample loop,
//! in that order, issues the same clock advances and noise draws whichever
//! group recorded the run, on whichever device. `Event::duration()` is
//! `(start + cost) − start` on the absolute queue clock, so the order is
//! part of every figure's bytes.

use crate::benchmark::{Benchmark, IterationOutput, Workload};
use crate::sizes::ProblemSize;
use eod_clrt::prelude::*;
use eod_devsim::profile::KernelProfile;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The device-independent part of one measurement group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedRun {
    /// `Workload::setup`: allocations, then host→device transfers.
    pub setup: Vec<Command>,
    /// The first iteration (executed for real unless model-only).
    pub first: Vec<Command>,
    /// `Workload::verify`: the reads of the serial check; empty if the
    /// run was not verified.
    pub verify: Vec<Command>,
    /// One steady-state iteration in replay mode; every later iteration
    /// enqueues the same list.
    pub replay: Vec<Command>,
    /// `Workload::footprint_bytes`.
    pub footprint_bytes: u64,
    /// Wall time `Workload::setup` took on the host when it was recorded.
    pub host_setup: Duration,
    /// Whether the first iteration passed the serial verify.
    pub verified: bool,
}

impl RecordedRun {
    /// The first iteration's kernel profiles, in launch order.
    pub fn profiles(&self) -> impl Iterator<Item = &KernelProfile> {
        self.first.iter().filter_map(|c| match c {
            Command::Kernel { profile, .. } => Some(profile),
            _ => None,
        })
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + [&self.setup, &self.first, &self.verify, &self.replay]
                .into_iter()
                .flatten()
                .map(Command::heap_bytes)
                .sum::<usize>()
    }
}

/// What a [`RecordedRun`] is a function of: the workload's identity and
/// the one device property it reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    benchmark: String,
    size: ProblemSize,
    seed: u64,
    /// A verified run, or a model-only one (first iteration unchecked).
    verified: bool,
    /// The one device property the dwarfs read (`local_1d`).
    max_work_group_size: usize,
}

impl RunKey {
    /// The key of `benchmark × size × seed` as `device` would run it.
    pub fn new(
        benchmark: &str,
        size: ProblemSize,
        seed: u64,
        verified: bool,
        device: &Device,
    ) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            size,
            seed,
            verified,
            max_work_group_size: device.max_work_group_size(),
        }
    }

    /// The key whose run also answers this one: a verified run carries
    /// everything a model-only request reads.
    fn verified_twin(&self) -> Option<Self> {
        (!self.verified).then(|| Self {
            verified: true,
            ..self.clone()
        })
    }
}

/// Budget of [`RunLog::global`]: recorded commands held, in bytes. A
/// figure set needs well under 1 MiB (nw large, the longest list, is
/// ≈ 200 KiB); a stream of never-repeated seeds fills it and then evicts.
pub const RUN_LOG_BUDGET_BYTES: usize = 32 << 20;

struct Slot {
    key: Arc<RunKey>,
    run: Arc<RecordedRun>,
    bytes: usize,
    /// Tick of the last use; the matching `recency` entry is the live one.
    used: u64,
}

#[derive(Default)]
struct State {
    runs: HashMap<Arc<RunKey>, Slot>,
    /// Keys a leader is recording right now.
    recording: HashSet<RunKey>,
    /// `(tick, key)` per use, oldest first. A key used again leaves its
    /// earlier entries behind as stale; eviction skips them, and they are
    /// swept once they outnumber the live ones.
    recency: VecDeque<(u64, Arc<RunKey>)>,
    tick: u64,
    bytes: usize,
}

impl State {
    fn touch(&mut self, key: &RunKey) -> Option<Arc<RecordedRun>> {
        let slot = self.runs.get_mut(key)?;
        self.tick += 1;
        slot.used = self.tick;
        let run = Arc::clone(&slot.run);
        self.recency.push_back((self.tick, Arc::clone(&slot.key)));
        if self.recency.len() > 2 * self.runs.len() + 64 {
            let runs = &self.runs;
            self.recency
                .retain(|(tick, key)| runs.get(key).is_some_and(|s| s.used == *tick));
        }
        Some(run)
    }

    /// Store `run`, which holds `bytes`, evicting least recently used
    /// entries past `budget`; a run that alone exceeds it is not kept.
    fn insert(&mut self, key: RunKey, run: Arc<RecordedRun>, bytes: usize, budget: usize) {
        if bytes > budget {
            return;
        }
        let key = Arc::new(key);
        self.tick += 1;
        let slot = Slot {
            key: Arc::clone(&key),
            run,
            bytes,
            used: self.tick,
        };
        if let Some(old) = self.runs.insert(Arc::clone(&key), slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.recency.push_back((self.tick, key));
        while self.bytes > budget {
            let (tick, oldest) = self.recency.pop_front().expect("bytes held imply a use");
            if self.runs.get(&oldest).is_some_and(|s| s.used == tick) {
                self.bytes -= self.runs.remove(&oldest).expect("just found").bytes;
            }
        }
    }
}

/// Occupancy and traffic of a [`RunLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLogStats {
    /// Recorded runs held.
    pub entries: u64,
    /// Bytes of recorded commands held.
    pub bytes: u64,
    /// Requests answered by a stored run (after a wait, if it was being
    /// recorded when they arrived).
    pub hits: u64,
    /// Requests that found nothing and led a recording.
    pub misses: u64,
}

/// The bounded, content-addressed store of recorded runs: least recently
/// used out first, constant-time insert, one recording per key at a time.
pub struct RunLog {
    state: Mutex<State>,
    /// Signalled when a recording is published or abandoned.
    settled: Condvar,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What [`RunLog::acquire`] hands a requester.
pub enum Acquired<'a> {
    /// Someone recorded this run; price it.
    Hit(Arc<RecordedRun>),
    /// Nobody has: [`Lead::record`] it.
    Lead(Lead<'a>),
}

/// The duty to record one key. Dropping it — published or not — releases
/// the waiters; unpublished (the run failed) it leaves no entry and one of
/// them leads next.
pub struct Lead<'a> {
    log: &'a RunLog,
    key: RunKey,
}

impl Lead<'_> {
    /// Store `run`, unless it falls short of what the key promises: a
    /// verified key needs a verified run, and every run its steady-state
    /// iteration.
    pub fn publish(self, mut run: RecordedRun) -> Option<Arc<RecordedRun>> {
        if run.verified != self.key.verified || run.replay.is_empty() {
            return None;
        }
        for list in [
            &mut run.setup,
            &mut run.first,
            &mut run.verify,
            &mut run.replay,
        ] {
            list.shrink_to_fit();
        }
        let bytes =
            run.heap_bytes() + self.key.benchmark.capacity() + std::mem::size_of::<RunKey>();
        let run = Arc::new(run);
        self.log
            .lock()
            .insert(self.key.clone(), Arc::clone(&run), bytes, self.log.budget);
        Some(run)
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock still holds a valid set.
        let mut state = self.log.state.lock().unwrap_or_else(|e| e.into_inner());
        state.recording.remove(&self.key);
        drop(state);
        self.log.settled.notify_all();
    }
}

impl RunLog {
    /// An empty log holding at most `budget` bytes of recorded commands.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            state: Mutex::default(),
            settled: Condvar::new(),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide log every simulated group goes through.
    pub fn global() -> &'static RunLog {
        static GLOBAL: OnceLock<RunLog> = OnceLock::new();
        GLOBAL.get_or_init(|| RunLog::with_budget(RUN_LOG_BUDGET_BYTES))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("run log lock poisoned")
    }

    /// The run for `key`, or the duty to record it. While another
    /// requester is recording a run that would answer `key`, wait for it —
    /// until `deadline`, past which the answer is `None`.
    pub fn acquire(&self, key: RunKey, deadline: Option<Instant>) -> Option<Acquired<'_>> {
        let twin = key.verified_twin();
        let mut state = self.lock();
        loop {
            let hit = twin
                .as_ref()
                .and_then(|t| state.touch(t))
                .or_else(|| state.touch(&key));
            if let Some(run) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Acquired::Hit(run));
            }
            let pending = state.recording.contains(&key)
                || twin.as_ref().is_some_and(|t| state.recording.contains(t));
            if !pending {
                state.recording.insert(key.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Some(Acquired::Lead(Lead { log: self, key }));
            }
            state = match deadline {
                None => self.settled.wait(state).expect("run log lock poisoned"),
                Some(at) => {
                    let left = at.checked_duration_since(Instant::now())?;
                    let (state, _) = self
                        .settled
                        .wait_timeout(state, left)
                        .expect("run log lock poisoned");
                    state
                }
            };
        }
    }

    /// Occupancy and traffic so far.
    pub fn stats(&self) -> RunLogStats {
        let state = self.lock();
        RunLogStats {
            entries: state.runs.len() as u64,
            bytes: state.bytes as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Why [`record`] produced no run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The deadline passed between two phases.
    TimedOut,
    /// The first iteration failed the serial verify.
    Unverified(String),
    /// Set-up or an iteration failed, or a phase cannot be reproduced from
    /// the tape.
    Failed(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::TimedOut => f.write_str("timed out while recording"),
            RecordError::Unverified(e) => write!(f, "verification failed: {e}"),
            RecordError::Failed(e) => f.write_str(e),
        }
    }
}

/// Run `workload` once on a recording context of `device` with its own
/// untraced queue, and keep what it asked of the device: set-up (timed
/// into `host_setup`), the first iteration, the verify reads when
/// `verified`, and one steady-state iteration in replay mode. A model-only
/// recording (`!verified`) replays its first iteration too, so no kernel
/// body runs. The deadline is checked between phases.
///
/// The runner sums the events a phase *returns*, so each phase must return
/// exactly the queue commands it enqueued; one that does not (or a steady
/// iteration that enqueues nothing) cannot be recorded.
pub fn record(
    mut workload: Box<dyn Workload>,
    device: &Device,
    verified: bool,
    deadline: Option<Instant>,
) -> std::result::Result<RecordedRun, RecordError> {
    let ctx = Context::recording(device.clone());
    let queue = CommandQueue::new(&ctx).with_profiling();
    let failed = |e: Error| RecordError::Failed(e.to_string());
    let in_time = || match deadline {
        Some(at) if Instant::now() >= at => Err(RecordError::TimedOut),
        _ => Ok(()),
    };
    let taped = |events: &[Event]| {
        let commands = ctx.take_recorded();
        if mirrors(&commands, events) {
            Ok(commands)
        } else {
            Err(RecordError::Failed(UNRECORDABLE.into()))
        }
    };
    let mut run = RecordedRun {
        footprint_bytes: workload.footprint_bytes(),
        verified,
        ..RecordedRun::default()
    };
    let started = Instant::now();
    let events = workload.setup(&ctx, &queue).map_err(failed)?;
    run.host_setup = started.elapsed();
    run.setup = taped(&events)?;
    in_time()?;
    queue.set_replay(!verified);
    run.first = taped(&workload.run_iteration(&queue).map_err(failed)?.events)?;
    in_time()?;
    if verified {
        workload.verify(&queue).map_err(RecordError::Unverified)?;
        run.verify = ctx.take_recorded();
        in_time()?;
    }
    queue.set_replay(true);
    run.replay = taped(&workload.run_iteration(&queue).map_err(failed)?.events)?;
    if run.replay.is_empty() {
        return Err(RecordError::Failed(UNRECORDABLE.into()));
    }
    Ok(run)
}

const UNRECORDABLE: &str =
    "cannot be recorded: an iteration enqueued nothing, or returned other events than it enqueued";

fn mirrors(commands: &[Command], events: &[Event]) -> bool {
    let mut enqueued = commands.iter().filter_map(|c| match c {
        Command::Write { .. } => Some((CommandKind::WriteBuffer, "write")),
        Command::Read { .. } => Some((CommandKind::ReadBuffer, "read")),
        Command::Kernel { name, .. } => Some((CommandKind::Kernel, name.as_str())),
        Command::Alloc { .. } | Command::Free { .. } => None,
    });
    events
        .iter()
        .all(|e| enqueued.next() == Some((e.kind, e.name.as_str())))
        && enqueued.next().is_none()
}

impl Lead<'_> {
    /// [`record`] `workload` on `device` as this lead's key asks —
    /// verified or model-only — and publish the run.
    pub fn record(
        self,
        workload: Box<dyn Workload>,
        device: &Device,
        deadline: Option<Instant>,
    ) -> std::result::Result<Arc<RecordedRun>, RecordError> {
        let run = record(workload, device, self.key.verified, deadline)?;
        self.publish(run)
            .ok_or_else(|| RecordError::Failed(UNRECORDABLE.into()))
    }
}

/// What a measurement group iterates through its phases — set-up, first
/// iteration, verify, then the sample loop: the live workload (the native
/// device, which times execution), or a recorded run priced on the group's
/// own queue (every simulated device). Call the phases in that order.
pub struct Source {
    backing: Backing,
    /// `run_iteration` calls so far.
    iterations: usize,
}

enum Backing {
    Live {
        workload: Box<dyn Workload>,
        host_setup: Duration,
    },
    Priced(Arc<RecordedRun>),
}

impl Source {
    /// The workload itself, executed and timed on the group's queue.
    pub fn live(workload: Box<dyn Workload>) -> Self {
        Self {
            backing: Backing::Live {
                workload,
                host_setup: Duration::ZERO,
            },
            iterations: 0,
        }
    }

    /// `run`, priced on the group's queue.
    pub fn priced(run: Arc<RecordedRun>) -> Self {
        Self {
            backing: Backing::Priced(run),
            iterations: 0,
        }
    }

    /// `Workload::footprint_bytes` of the live or the recorded workload.
    pub fn footprint_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Live { workload, .. } => workload.footprint_bytes(),
            Backing::Priced(run) => run.footprint_bytes,
        }
    }

    /// Host wall time of set-up, once [`Source::setup`] has returned: as
    /// just measured when live, as measured by the recording when priced.
    pub fn host_setup(&self) -> Duration {
        match &self.backing {
            Backing::Live { host_setup, .. } => *host_setup,
            Backing::Priced(run) => run.host_setup,
        }
    }

    /// `Workload::setup` on the queue's context: its transfer events.
    pub fn setup(&mut self, queue: &CommandQueue) -> Result<Vec<Event>> {
        match &mut self.backing {
            Backing::Live {
                workload,
                host_setup,
            } => {
                let started = Instant::now();
                let events = workload.setup(queue.context(), queue)?;
                *host_setup = started.elapsed();
                Ok(events)
            }
            Backing::Priced(run) => price(&run.setup, queue),
        }
    }

    /// `Workload::run_iteration`.
    pub fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        self.iterations += 1;
        match &mut self.backing {
            Backing::Live { workload, .. } => workload.run_iteration(queue),
            Backing::Priced(run) => {
                let list = if self.iterations == 1 {
                    &run.first
                } else {
                    &run.replay
                };
                Ok(IterationOutput::new(price(list, queue)?))
            }
        }
    }

    /// `Workload::verify`: on a recorded run, its reads priced and the
    /// recording's verdict.
    pub fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        match &mut self.backing {
            Backing::Live { workload, .. } => workload.verify(queue),
            Backing::Priced(run) => {
                price(&run.verify, queue).map_err(|e| e.to_string())?;
                if run.verified {
                    Ok(())
                } else {
                    Err("the recorded run was not verified".into())
                }
            }
        }
    }
}

fn price(commands: &[Command], queue: &CommandQueue) -> Result<Vec<Event>> {
    let mut events = Vec::with_capacity(commands.len());
    for command in commands {
        events.extend(queue.enqueue_recorded(command)?);
    }
    Ok(events)
}

/// The simulated device a model-only recording is made on. Any catalog
/// device would do — a recorded run is device-independent — but pinning
/// one keeps the path deterministic and its documentation honest.
pub const REFERENCE_DEVICE: &str = "i7-6700K";

/// The recorded run of `benchmark × size × seed` for readers that want
/// its profiles and sizes, not a measurement: from the log if any group
/// has recorded it (a verified run serves), else [`record`]ed now,
/// model-only, on the [`REFERENCE_DEVICE`] — set up for real, then two
/// iterations in replay mode, so no kernel body runs.
pub fn model_only_run(
    benchmark: &dyn Benchmark,
    size: ProblemSize,
    seed: u64,
) -> std::result::Result<Arc<RecordedRun>, String> {
    let device = Platform::simulated()
        .device_by_name(REFERENCE_DEVICE)
        .expect("reference device is in the catalog");
    let key = RunKey::new(benchmark.name(), size, seed, false, &device);
    match RunLog::global()
        .acquire(key, None)
        .expect("no deadline to pass")
    {
        Acquired::Hit(run) => Ok(run),
        Acquired::Lead(lead) => lead
            .record(benchmark.workload(size, seed), &device, None)
            .map_err(|e| format!("{} {}: {e}", benchmark.name(), size.label())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn key(seed: u64, verified: bool) -> RunKey {
        RunKey::new("crc", ProblemSize::Tiny, seed, verified, &Device::native())
    }

    /// A run of `launches` launches per iteration, verified or not.
    fn run(launches: usize, verified: bool) -> RecordedRun {
        let launch = Command::Kernel {
            name: "k".into(),
            profile: KernelProfile::new("k"),
        };
        RecordedRun {
            setup: vec![Command::Alloc { bytes: 64 }, Command::Write { bytes: 64 }],
            first: vec![launch.clone(); launches],
            verify: if verified {
                vec![Command::Read { bytes: 64 }]
            } else {
                Vec::new()
            },
            replay: vec![launch; launches],
            footprint_bytes: 64,
            host_setup: Duration::from_micros(5),
            verified,
        }
    }

    fn lead(log: &RunLog, key: RunKey) -> Lead<'_> {
        match log.acquire(key, None) {
            Some(Acquired::Lead(lead)) => lead,
            _ => panic!("expected to lead"),
        }
    }

    fn hit(log: &RunLog, key: RunKey) -> Arc<RecordedRun> {
        match log.acquire(key, None) {
            Some(Acquired::Hit(run)) => run,
            _ => panic!("expected a hit"),
        }
    }

    #[test]
    fn ten_thousand_distinct_seeds_stay_under_the_budget() {
        let budget = 256 << 10;
        let log = RunLog::with_budget(budget);
        let one = run(4, true).heap_bytes();
        for seed in 0..10_000u64 {
            lead(&log, key(seed, true)).publish(run(4, true)).unwrap();
            let stats = log.stats();
            assert!(stats.bytes <= budget as u64, "seed {seed}: {stats:?}");
            assert!(stats.entries >= 1);
            // Seed 0 is asked for now and then; least recently *used* goes
            // first, so it outlives thousands of younger entries.
            if seed % 100 == 0 {
                assert_eq!(*hit(&log, key(0, true)), run(4, true), "seed {seed}");
            }
        }
        let stats = log.stats();
        assert!(stats.entries as usize >= budget / (2 * one), "{stats:?}");
        assert_eq!((stats.misses, stats.hits), (10_000, 100));
        hit(&log, key(9_999, true));
        assert!(
            matches!(log.acquire(key(5_000, true), None), Some(Acquired::Lead(_))),
            "evicted"
        );
        // The use queue is swept, not left to grow with every hit.
        for _ in 0..100_000 {
            hit(&log, key(9_999, true));
        }
        let state = log.lock();
        assert!(state.recency.len() <= 2 * state.runs.len() + 65);
    }

    #[test]
    fn a_run_larger_than_the_budget_is_not_kept() {
        let log = RunLog::with_budget(4 << 10);
        lead(&log, key(0, true)).publish(run(2, true)).unwrap();
        let held = (log.stats().entries, log.stats().bytes);
        let big = lead(&log, key(1, true)).publish(run(64, true));
        assert!(big.is_some(), "the leader still gets its run");
        let now = (log.stats().entries, log.stats().bytes);
        assert_eq!(now, held, "and what was stored stays");
        hit(&log, key(0, true));
    }

    #[test]
    fn a_verified_run_answers_model_only_requests_but_not_the_reverse() {
        let log = RunLog::with_budget(1 << 20);
        lead(&log, key(1, false)).publish(run(2, false)).unwrap();
        assert!(!hit(&log, key(1, false)).verified);
        lead(&log, key(1, true)).publish(run(2, true)).unwrap();
        assert!(hit(&log, key(1, true)).verified);
        assert!(hit(&log, key(1, false)).verified, "the verified run serves");
        // Another seed is another run.
        assert!(matches!(
            log.acquire(key(2, false), None),
            Some(Acquired::Lead(_))
        ));
    }

    #[test]
    fn a_run_short_of_its_key_is_not_stored() {
        let log = RunLog::with_budget(1 << 20);
        assert!(lead(&log, key(1, true)).publish(run(2, false)).is_none());
        let mut never_iterated = run(2, true);
        never_iterated.replay.clear();
        assert!(lead(&log, key(1, true)).publish(never_iterated).is_none());
        assert_eq!(log.stats().entries, 0);
    }

    #[test]
    fn waiters_share_one_recording_and_take_over_a_failed_one() {
        let log = RunLog::with_budget(1 << 20);
        let waiters = 4;
        let first = lead(&log, key(7, true));
        let arrived = Barrier::new(waiters + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..waiters)
                .map(|_| {
                    scope.spawn(|| {
                        arrived.wait();
                        match log.acquire(key(7, true), None).unwrap() {
                            // The first leader failed: exactly one waiter
                            // takes over, records and publishes.
                            Acquired::Lead(lead) => {
                                lead.publish(run(3, true)).unwrap();
                                true
                            }
                            Acquired::Hit(run) => {
                                assert_eq!(*run, super::tests::run(3, true));
                                false
                            }
                        }
                    })
                })
                .collect();
            arrived.wait();
            // A waiter whose budget runs out stops waiting, empty-handed.
            let soon = Instant::now() + Duration::from_millis(20);
            assert!(log.acquire(key(7, true), Some(soon)).is_none());
            // So does a model-only request the pending verified run would serve.
            let soon = Instant::now() + Duration::from_millis(1);
            assert!(log.acquire(key(7, false), Some(soon)).is_none());
            drop(first);
            let led = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&led| led)
                .count();
            assert_eq!(led, 1);
        });
        let stats = log.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.misses, 2,
            "the failed lead and the one that took over"
        );
        assert_eq!(stats.hits, waiters as u64 - 1);
    }
}
